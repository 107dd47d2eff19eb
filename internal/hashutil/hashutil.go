// Package hashutil provides the join-key hash and bucket-partitioning
// plan shared by the Grace-Hash-based join methods. The paper assumes
// uniformly distributed hash values (Section 5.1.2); the finalizer mix
// here gives that for any key distribution without skewed low bits.
package hashutil

import (
	"errors"
	"fmt"
)

// Hash mixes a 64-bit join key into a uniformly distributed 64-bit
// value (the splitmix64 finalizer).
func Hash(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Bucket maps a key to one of b hash buckets.
func Bucket(key uint64, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("hashutil: %d buckets", b))
	}
	return int(Hash(key) % uint64(b))
}

// ErrInsufficientMemory is returned when no bucket count lets each R
// bucket fit in memory while leaving an input block for partitioning —
// the paper's M >= sqrt(|R|) requirement made exact at block
// granularity.
var ErrInsufficientMemory = errors.New("hashutil: memory below sqrt(|R|) requirement")

// Plan describes a Grace Hash bucket layout for partitioning a
// relation of RBlocks using MBlocks of memory.
type Plan struct {
	// B is the number of hash buckets.
	B int
	// BucketBlocks is the expected size of one R bucket in blocks
	// (uniform hashing), rounded up.
	BucketBlocks int64
	// WriteBuf is the per-bucket memory write buffer in blocks used
	// while partitioning; flushes happen at this granularity, so small
	// values make bucket writes random-I/O-like (Section 9).
	WriteBuf int64
	// InBuf is the memory input buffer in blocks used while
	// partitioning.
	InBuf int64
}

// PlanBuckets computes the bucket layout. The layout must satisfy, at
// block granularity, the paper's two conditions (Section 5.1.2):
//
//   - each R bucket fits in memory when read back, next to one input
//     block for streaming the other relation: BucketBlocks <= M-1;
//   - partitioning fits in memory: B write buffers of at least one
//     block plus an input buffer: B*WriteBuf + InBuf <= M.
//
// Buckets target nine tenths of the join-phase memory so that a
// useful streaming buffer remains next to a loaded bucket; leftover
// memory widens the write buffers, and a tenth of memory (at least
// one block) is kept as the input buffer. When even full-memory
// buckets would not fit, the target relaxes to M-1 before giving up.
func PlanBuckets(rBlocks, mBlocks int64) (Plan, error) {
	return PlanBucketsBounded(rBlocks, mBlocks, 0)
}

// PlanBucketsBounded is PlanBuckets with an additional upper bound on
// the bucket size (0 = unbounded). Tape–tape methods bound buckets by
// the disk assembly area: with ample memory they simply use more,
// smaller buckets rather than failing.
func PlanBucketsBounded(rBlocks, mBlocks, maxBucket int64) (Plan, error) {
	if rBlocks < 1 {
		return Plan{}, fmt.Errorf("hashutil: relation of %d blocks", rBlocks)
	}
	if mBlocks < 2 {
		return Plan{}, fmt.Errorf("%w: M=%d blocks", ErrInsufficientMemory, mBlocks)
	}
	target := (mBlocks - 1) * 9 / 10
	if target < 1 {
		target = 1
	}
	if maxBucket > 0 && target > maxBucket {
		target = maxBucket
	}
	b := (rBlocks + target - 1) / target // ceil(|R| / target)
	if b+1 > mBlocks && (maxBucket <= 0 || maxBucket >= mBlocks-1) {
		// Fall back to the largest buckets that can possibly fit.
		b = (rBlocks + mBlocks - 2) / (mBlocks - 1)
	}
	if b+1 > mBlocks {
		return Plan{}, fmt.Errorf("%w: |R|=%d blocks needs %d buckets but M=%d holds %d write buffers",
			ErrInsufficientMemory, rBlocks, b, mBlocks, mBlocks-1)
	}
	inBuf := mBlocks / 10
	if inBuf < 1 {
		inBuf = 1
	}
	writeBuf := (mBlocks - inBuf) / b
	if writeBuf < 1 {
		writeBuf = 1
		inBuf = mBlocks - b // >= 1 by the feasibility check
	}
	return Plan{
		B:            int(b),
		BucketBlocks: (rBlocks + b - 1) / b,
		WriteBuf:     writeBuf,
		InBuf:        inBuf,
	}, nil
}
