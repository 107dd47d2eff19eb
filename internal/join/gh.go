package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/sim"
)

// addr converts a block offset to a tape address.
func addr(n int64) device.Addr { return device.Addr(n) }

// bucketSource abstracts where a hash bucket lives: a disk file or a
// tape region. Reads charge the owning device.
type bucketSource interface {
	blocks() int64
	device() string
	read(p *sim.Proc, off, n int64) ([]block.Block, error)
}

type diskBucket struct{ f device.File }

func (d diskBucket) blocks() int64  { return d.f.Len() }
func (d diskBucket) device() string { return "disk:" + d.f.Name() }
func (d diskBucket) read(p *sim.Proc, off, n int64) ([]block.Block, error) {
	return d.f.ReadAt(p, off, n)
}

type tapeBucket struct {
	drive  device.Drive
	region device.Region
	// reverse reads the whole bucket backward (paper footnote 2):
	// used by CTT-GH's joiner on alternate iterations so the head
	// never seeks back across the bucket run. Applies only to a
	// full-bucket read; partial reads fall back to forward.
	reverse bool
}

func (t tapeBucket) blocks() int64  { return t.region.N }
func (t tapeBucket) device() string { return "tape:" + t.drive.Name() }
func (t tapeBucket) read(p *sim.Proc, off, n int64) ([]block.Block, error) {
	if t.reverse && off == 0 && n == t.region.N {
		return t.drive.ReadRegionReverse(p, t.region)
	}
	return t.drive.ReadAt(p, t.region.Start+addr(off), n)
}

// scanBufFor sizes the S-side streaming buffer for the join phase:
// whatever memory remains next to a full R bucket, aiming for the
// plan's input-buffer size. At minimal memory this is a single block,
// making bucket scans random-I/O-like (the Figure 8 small-M uptick).
func scanBufFor(plan hashutil.Plan, m int64) int64 {
	sb := m - plan.BucketBlocks
	if sb > plan.InBuf {
		sb = plan.InBuf
	}
	if sb < 1 {
		sb = 1
	}
	return sb
}

// joinBucketPair loads the R bucket into a memory hash table and
// streams the matching S bucket through it. Oversized R buckets
// (hash-value skew) fall back to multiple memory loads, each paying a
// full scan of the S bucket.
func joinBucketPair(e *env, p *sim.Proc, r, s bucketSource, maxLoad, scanBuf int64) error {
	if maxLoad < 1 {
		return fmt.Errorf("%w: no memory for R bucket", ErrNeedMemory)
	}
	sp := e.span(p, "bucket-pair",
		obs.AInt("r_blocks", r.blocks()), obs.AInt("s_blocks", s.blocks()))
	defer sp.Close(p)
	for roff := int64(0); roff < r.blocks(); roff += maxLoad {
		n := min(maxLoad, r.blocks()-roff)
		err := func() error {
			e.mem.acquire(n)
			defer e.mem.release(n)
			rBlks, err := e.readSrc(p, r, roff, n)
			if err != nil {
				return err
			}
			table := newHashTable(n, e.spec.R.TuplesPerBlock)
			defer table.release()
			if err := table.addBlocks(rBlks, nil); err != nil {
				return err
			}

			e.mem.acquire(scanBuf)
			defer e.mem.release(scanBuf)
			return e.scan(p, s, scanBuf, func(sBlks []block.Block, _ bool) error {
				err := forEachTuple(sBlks, func(t block.Tuple) {
					table.probeWithS(e, p, t)
				})
				if err != nil {
					return err
				}
				return e.checkStop()
			})
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// ghPlan is the disk–tape Grace Hash bucket plan: B buckets for R
// with B write buffers plus an input block in M, the Table 2 memory
// requirement M >= sqrt(|R|) at block granularity.
func ghPlan(r, _ int64, res Resources) (hashutil.Plan, error) {
	return needMemory(hashutil.PlanBuckets(r, res.MemoryBlocks))
}

// needMemory types a bucket planner's refusal as ErrNeedMemory.
func needMemory(plan hashutil.Plan, err error) (hashutil.Plan, error) {
	if err != nil {
		return plan, fmt.Errorf("%w: %v", ErrNeedMemory, err)
	}
	return plan, nil
}

// totalLen sums file lengths.
func totalLen(files []device.File) int64 {
	var n int64
	for _, f := range files {
		n += f.Len()
	}
	return n
}

// freeAll frees every non-nil file.
func freeAll(files []device.File) {
	for _, f := range files {
		if f != nil {
			f.Free()
		}
	}
}

// stageS hash-partitions S's chunk [off, off+n) into disk bucket files
// following sLay; reserve is partPass's double-buffer hook.
func (e *env) stageS(p *sim.Proc, sLay layout, off, n int64, reserve func(*sim.Proc, int64)) ([]device.File, error) {
	sp := e.span(p, "stage-S", obs.AInt("off", off))
	defer sp.Close(p)
	return e.partition(p, partPass{
		src: tapeBucket{drive: e.driveS, region: e.spec.S.Region.Sub(off, n)}, lay: sLay, prefix: "sb",
		perBlk: e.spec.S.TuplesPerBlock, tag: e.spec.S.Tag, keep: e.filterS(), reserve: reserve,
	})
}
