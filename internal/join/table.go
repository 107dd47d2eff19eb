package join

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/sim"
)

// hashTable is the in-memory build side of a join phase. CPU cost is
// outside the paper's cost model, so building and probing consume no
// virtual time.
//
// The layout is flat: tuples sit contiguously in insertion order, an
// open-addressing slot array (linear probing, at most half full) maps a
// key to its first tuple, and next chains a key's tuples in insertion
// order, so a probe emits duplicates in the order they were built.
// Index 0 of the parallel arrays is a sentinel: link 0 means "none".
//
// A one-hash bitset with 8 bits per slot prefilters probes: a clear bit
// means the key was never inserted, so a miss usually costs one cached
// bit instead of a walk of the slot run and its tuples. Tables are
// pooled; a build site calls release once its table is dead.
type hashTable struct {
	tuples []block.Tuple
	next   []int32  // next[i]: the tuple after i with the same key
	tail   []int32  // tail[i]: for the first tuple of a key, the last one
	slots  []int32  // first tuple of the key hashed here; 0 = empty
	shift  uint     // 64 - log2(len(slots))
	filter []uint64 // key prefilter, 8 bits per slot
	fshift uint     // 64 - log2(bits in filter)
}

// Multiplicative hash constants: slotMul places a key in slots,
// filterMul picks its prefilter bit. Both take the top bits of the
// product and are independent of each other and of hashutil.Bucket,
// so they stay well mixed within one Grace bucket.
const (
	slotMul   = 0x9E3779B97F4A7C15
	filterMul = 0xC2B2AE3D27D4EB4F
)

var tablePool = sync.Pool{New: func() any { return new(hashTable) }}

// newHashTable sizes a table for the build side it is about to hold,
// blocks of tuplesPerBlock tuples; a build that exceeds the plan grows
// by doubling. The table comes from a pool: call release once it is
// dead.
func newHashTable(blocks int64, tuplesPerBlock int) *hashTable {
	h := tablePool.Get().(*hashTable)
	h.reset(int(blocks) * tuplesPerBlock)
	return h
}

// reset empties h and sizes it for n tuples, reusing every array that
// is large enough. Of the parallel arrays only the sentinel is cleared:
// append overwrites the rest before it is read.
func (h *hashTable) reset(n int) {
	h.tuples = cleared(h.tuples, 1, n+1)
	h.next = cleared(h.next, 1, n+1)
	h.tail = cleared(h.tail, 1, n+1)
	size := 8
	for size < 2*n {
		size *= 2
	}
	h.setSlots(size)
}

// cleared returns n zero elements with room for c, in s's array when it
// is large enough.
func cleared[T any](s []T, n, c int) []T {
	if cap(s) < c {
		return make([]T, n, c)
	}
	s = s[:n]
	clear(s)
	return s
}

// setSlots replaces the slot array and the prefilter with empty ones
// for size slots, reusing the current arrays when they are large
// enough.
func (h *hashTable) setSlots(size int) {
	h.slots = cleared(h.slots, size, size)
	h.shift = uint(64 - bits.TrailingZeros(uint(size)))
	h.filter = cleared(h.filter, size/8, size/8) // 8 bits per slot
	h.fshift = uint(64 - bits.TrailingZeros(uint(size*8)))
}

// release clears h's tuples, so a pooled table pins no block payload,
// and returns h to the pool. h must not be used afterwards.
func (h *hashTable) release() {
	clear(h.tuples)
	tablePool.Put(h)
}

// slotFor returns the slot holding key, or the empty slot where key
// belongs.
func (h *hashTable) slotFor(key uint64) *int32 {
	mask := uint64(len(h.slots) - 1)
	for i := (key * slotMul) >> h.shift; ; i = (i + 1) & mask {
		sl := &h.slots[i]
		if *sl == 0 || h.tuples[*sl].Key == key {
			return sl
		}
	}
}

// filterBit returns the prefilter word holding key's bit, and the bit.
func (h *hashTable) filterBit(key uint64) (*uint64, uint64) {
	b := (key * filterMul) >> h.fshift
	return &h.filter[b>>6], 1 << (b & 63)
}

// mark sets key's prefilter bit.
func (h *hashTable) mark(key uint64) {
	w, bit := h.filterBit(key)
	*w |= bit
}

// insert appends t, after any earlier tuple with the same key.
func (h *hashTable) insert(t block.Tuple) {
	if 2*len(h.tuples) > len(h.slots) {
		old := h.slots
		h.slots = nil // setSlots must not reuse old while it is read
		h.setSlots(2 * len(old))
		for _, head := range old {
			if head != 0 {
				key := h.tuples[head].Key
				*h.slotFor(key) = head
				h.mark(key)
			}
		}
	}
	i := int32(len(h.tuples))
	h.tuples = append(h.tuples, t)
	h.next = append(h.next, 0)
	h.tail = append(h.tail, i)
	if sl := h.slotFor(t.Key); *sl == 0 {
		*sl = i
		h.mark(t.Key)
	} else {
		h.next[h.tail[*sl]] = i
		h.tail[*sl] = i
	}
}

// first returns the index of the first tuple with key, 0 when there is
// none; h.next[i] continues the chain. A clear prefilter bit answers 0
// without touching slots or tuples.
func (h *hashTable) first(key uint64) int32 {
	if w, bit := h.filterBit(key); *w&bit == 0 {
		return 0
	}
	return *h.slotFor(key)
}

// addBlocks inserts the tuples of blks that survive keep (nil keeps
// all), block by block; see forEachTuple for corrupt blocks.
func (h *hashTable) addBlocks(blks []block.Block, keep keepFn) error {
	return forEachTuple(blks, func(t block.Tuple) {
		if keep == nil || keep(t) {
			h.insert(t)
		}
	})
}

// probeWithR probes with an R tuple against a table built on S tuples,
// emitting (r, s) pairs through the env's emission funnel.
func (h *hashTable) probeWithR(e *env, p *sim.Proc, r block.Tuple) {
	for i := h.first(r.Key); i != 0; i = h.next[i] {
		e.emit(p, r, h.tuples[i])
	}
}

// probeWithS probes with an S tuple against a table built on R tuples,
// emitting (r, s) pairs through the env's emission funnel.
func (h *hashTable) probeWithS(e *env, p *sim.Proc, s block.Tuple) {
	for i := h.first(s.Key); i != 0; i = h.next[i] {
		e.emit(p, h.tuples[i], s)
	}
}

func (h *hashTable) len() int { return len(h.tuples) - 1 }

// forEachTuple applies fn to every tuple of blks, block by block. A
// malformed block stops the walk, before any of its tuples reaches fn,
// with the decoder's typed error: corruption is an input condition,
// never a panic.
//
// Each block's checksum is vouched for once, where it is delivered:
// blks must come from readDev (directly, or via scan, tapeRead or
// readSrc — including through a reader proc's queue or a spool
// transform) or from a Builder. readDev re-verifies every CRC when the
// run has a fault injector, the only source of corruption; without one
// the device vouches — a sim device returns the bytes it stored, and a
// file read has passed its frame CRC. So forEachTuple checks only
// header and framing. Blocks of any other provenance go through
// block.Each, which checks everything.
func forEachTuple(blks []block.Block, fn func(block.Tuple)) error {
	for _, blk := range blks {
		if err := blk.EachVerified(fn); err != nil {
			return fmt.Errorf("join: decode: %w", err)
		}
	}
	return nil
}

// keepFn reports whether a tuple survives a pushed-down selection.
type keepFn func(block.Tuple) bool

// filterRepack drops tuples failing keep and repacks the survivors at
// the original density, returning the smaller block run. A nil keep
// returns the input unchanged.
func filterRepack(blks []block.Block, keep keepFn, perBlk int, tag byte) ([]block.Block, error) {
	if keep == nil {
		return blks, nil
	}
	bld := block.NewBuilder(tag)
	out := make([]block.Block, 0, len(blks))
	err := forEachTuple(blks, func(t block.Tuple) {
		if !keep(t) {
			return
		}
		bld.Append(t)
		if bld.Len() >= perBlk {
			out = append(out, bld.Finish())
		}
	})
	if err != nil {
		return nil, err
	}
	if bld.Len() > 0 {
		out = append(out, bld.Finish())
	}
	return out, nil
}

// filterFor returns the pushed-down filter for a relation tag, with
// drop accounting wired to the right stat.
func (e *env) filterR() keepFn {
	if e.spec.FilterR == nil {
		return nil
	}
	return func(t block.Tuple) bool {
		if e.spec.FilterR(t) {
			return true
		}
		e.stats.RFiltered++
		return false
	}
}

func (e *env) filterS() keepFn {
	if e.spec.FilterS == nil {
		return nil
	}
	return func(t block.Tuple) bool {
		if e.spec.FilterS(t) {
			return true
		}
		e.stats.SFiltered++
		return false
	}
}

// scan streams src in chunk-block requests, calling fn with each batch
// and whether it is the last. The stream is strictly sequential, keeping
// the device streaming when fn is fast. Reads go through the retrying
// device-read path, so transient faults are absorbed here.
//
// A batch is fn's: scan keeps no alias to it. The callers that consume
// a batch within fn hand it back with src.recycle before returning:
// partition (the partitioner copies each tuple), the probe sides of
// joinBucketPair and scanRAndProbe and the shared pass's R scan (a
// probe emits copies) and copyRToDisk (Append has framed the bytes).
// A batch that fn keeps past its return is recycled where that keeper
// ends, or never: nbJoin's build side after its table is released,
// while appendFileToTape's batches stay with the tape medium they were
// appended to.
func (e *env) scan(p *sim.Proc, src bucketSource, chunk int64, fn func(blks []block.Block, last bool) error) error {
	if chunk < 1 {
		return fmt.Errorf("join: scan chunk %d", chunk)
	}
	for off, end := int64(0), src.blocks(); off < end; off += chunk {
		n := min(chunk, end-off)
		blks, err := e.readSrc(p, src, off, n)
		if err != nil {
			return err
		}
		if err := fn(blks, off+n >= end); err != nil {
			return err
		}
	}
	return nil
}

// partPass is one hash-partitioning pass: src streams in lay.inBuf-block
// requests into one disk file per listed partition, named prefix<part>.
type partPass struct {
	src    bucketSource
	lay    layout
	parts  []int // partitions to keep, in file creation order; nil = all
	prefix string
	perBlk int
	tag    byte
	keep   keepFn
	// sketch, when non-nil, observes every surviving key; census, when
	// non-nil (len lay.parts), counts surviving tuples per partition.
	// Both see the whole stream, not just the listed partitions.
	sketch *hashutil.FreqSketch
	census []int64
	// reserve, when non-nil, is called with the block count of each
	// flush before its disk write: the concurrent S pipeline's
	// double-buffer hook.
	reserve func(p *sim.Proc, n int64)
}

// partition runs one partition pass. It holds one write buffer per
// listed partition plus the input buffer, and returns the files indexed
// by partition (nil for unlisted ones). A failed pass frees every file,
// so retried units never leak disk space.
func (e *env) partition(p *sim.Proc, pp partPass) ([]device.File, error) {
	parts := pp.parts
	if parts == nil {
		parts = make([]int, pp.lay.parts)
		for i := range parts {
			parts[i] = i
		}
	}
	files := make([]device.File, pp.lay.parts)
	ok := false
	defer func() {
		if !ok {
			freeAll(files)
		}
	}()
	for _, part := range parts {
		f, err := e.disks.Create(fmt.Sprintf("%s%d", pp.prefix, part), nil)
		if err != nil {
			return nil, err
		}
		files[part] = f
	}
	mem := int64(len(parts))*pp.lay.writeBuf + pp.lay.inBuf
	e.mem.acquire(mem)
	defer e.mem.release(mem)

	pt := newPartitioner(pp.lay.parts, pp.lay.writeBuf, pp.perBlk, pp.tag,
		func(fp *sim.Proc, part int, blks []block.Block) error {
			if pp.reserve != nil {
				pp.reserve(fp, int64(len(blks)))
			}
			return files[part].Append(fp, blks)
		})
	pt.route = pp.lay.route
	pt.sketch, pt.census = pp.sketch, pp.census
	if pp.parts != nil {
		pt.only = func(part int) bool { return files[part] != nil }
	}
	err := e.scan(p, pp.src, pp.lay.inBuf, func(blks []block.Block, _ bool) error {
		var addErr error
		err := forEachTuple(blks, func(t block.Tuple) {
			if addErr != nil || (pp.keep != nil && !pp.keep(t)) {
				return
			}
			addErr = pt.add(p, t)
		})
		if err == nil {
			err = addErr
		}
		if err != nil {
			return err
		}
		// The partitioner's builders copied every tuple they kept, and
		// the sketch and census keep only keys.
		pp.src.recycle(blks)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := pt.finish(p); err != nil {
		return nil, err
	}
	ok = true
	return files, nil
}

// flushFn receives a run of freshly packed blocks for one bucket.
type flushFn func(p *sim.Proc, bucket int, blks []block.Block) error

// partitioner hash-partitions a tuple stream into B buckets, packing
// tuples into blocks at the relation's density and flushing each
// bucket's write buffer at writeBuf-block granularity. Flush size is
// the knob that makes bucket writes degrade into random I/O when
// memory is scarce (Section 9).
type partitioner struct {
	b              int
	writeBuf       int64
	tuplesPerBlock int
	tag            byte
	builders       []*block.Builder
	pending        [][]block.Block
	flush          flushFn
	// only, when non-nil, keeps just the buckets it accepts and
	// discards other tuples (the multi-scan assembly of CTT-GH and
	// TT-GH Step I, the split of one bucket in the skew repair).
	only func(bucket int) bool
	// route maps a key to its bucket; defaults to the uniform hash
	// over b buckets. Skew-aware layouts install a SkewPlan router.
	route func(key uint64) int
	// sketch and census, when non-nil, observe every key before the
	// only-filter, so one full scan completes the frequency sketch and
	// the per-bucket tuple counts even when the partitioner keeps only
	// a window of buckets.
	sketch *hashutil.FreqSketch
	census []int64
}

func newPartitioner(b int, writeBuf int64, tuplesPerBlock int, tag byte, flush flushFn) *partitioner {
	pt := &partitioner{
		b: b, writeBuf: writeBuf, tuplesPerBlock: tuplesPerBlock, tag: tag,
		builders: make([]*block.Builder, b),
		pending:  make([][]block.Block, b),
		flush:    flush,
	}
	for i := range pt.builders {
		pt.builders[i] = block.NewBuilder(tag)
	}
	pt.route = func(key uint64) int { return hashutil.Bucket(key, b) }
	return pt
}

// add routes one tuple.
func (pt *partitioner) add(p *sim.Proc, t block.Tuple) error {
	if pt.sketch != nil {
		pt.sketch.Add(t.Key)
	}
	bkt := pt.route(t.Key)
	if pt.census != nil {
		pt.census[bkt]++
	}
	if pt.only != nil && !pt.only(bkt) {
		return nil
	}
	bld := pt.builders[bkt]
	bld.Append(t)
	if bld.Len() < pt.tuplesPerBlock {
		return nil
	}
	run := pt.pending[bkt]
	if run == nil {
		// A flush run is allocated once, at the flush threshold the
		// memory ledger charges; each flush takes it whole, so the
		// next block starts a fresh one.
		run = make([]block.Block, 0, pt.writeBuf)
	}
	run = append(run, bld.Finish())
	pt.pending[bkt] = run
	if int64(len(run)) >= pt.writeBuf {
		return pt.drain(p, bkt)
	}
	return nil
}

// drain flushes one bucket's pending blocks.
func (pt *partitioner) drain(p *sim.Proc, bkt int) error {
	blks := pt.pending[bkt]
	if len(blks) == 0 {
		return nil
	}
	pt.pending[bkt] = nil
	return pt.flush(p, bkt, blks)
}

// finish packs partially filled blocks and flushes every bucket.
func (pt *partitioner) finish(p *sim.Proc) error {
	for bkt, bld := range pt.builders {
		if bld.Len() > 0 {
			pt.pending[bkt] = append(pt.pending[bkt], bld.Finish())
		}
		if err := pt.drain(p, bkt); err != nil {
			return err
		}
	}
	return nil
}
