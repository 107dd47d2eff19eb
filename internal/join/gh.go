package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/buffer"
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
func ghPlan(r int64, res Resources) (hashutil.Plan, error) {
	plan, err := hashutil.PlanBuckets(r, res.MemoryBlocks)
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

// ensureRBuckets (re)partitions R into disk bucket files when they are
// absent or lost extents to a failed disk. Re-entry pays a fresh tape
// scan of R, counted in RScans. When skew-aware partitioning is on,
// the pass sketches key frequencies while partitioning and then
// repairs oversized buckets on disk, publishing the refined plan
// through skp; both the sketch and the repair are deterministic, so a
// recovery replay rebuilds the identical layout.
func (e *env) ensureRBuckets(p *sim.Proc, plan hashutil.Plan, fRB *[]device.File, skp **hashutil.SkewPlan) error {
	if *fRB != nil && !anyLost(*fRB) {
		return nil
	}
	if *fRB != nil {
		freeAll(*fRB)
		*fRB = nil
	}
	pass := partPass{
		src: tapeBucket{drive: e.driveR, region: e.spec.R.Region}, lay: layoutOf(plan), prefix: "rb",
		perBlk: e.spec.R.TuplesPerBlock, tag: e.spec.R.Tag, keep: e.filterR(), sketch: e.newSketch(),
	}
	if pass.sketch != nil {
		pass.census = make([]int64, plan.B)
	}
	sp := e.span(p, "hash-R", obs.AInt("buckets", int64(plan.B)))
	files, err := e.partition(p, pass)
	sp.Close(p)
	if err != nil {
		return err
	}
	if pass.sketch != nil {
		files, *skp, err = e.repairRSkew(p, plan, files, pass)
		if err != nil {
			// repairRSkew freed every partition file already.
			return err
		}
	}
	*fRB = files
	e.stats.RScans++
	return nil
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

// ghStepIISeq is the sequential Step II of the Grace Hash methods and
// the recovery tail of the concurrent ones: starting at startOff,
// partition a disk-sized chunk of S into bucket files (following sLay,
// which matches R's final partition map when a skew plan refined it)
// and join each against its R partition. Each chunk is one restartable
// unit with bucket-granularity checkpoints: committed buckets are
// skipped on restart, ensureR re-stages R if a disk loss destroyed it,
// and chunk sizing follows the surviving disk capacity.
func ghStepIISeq(e *env, p *sim.Proc, plan hashutil.Plan, sLay layout, startOff int64,
	ensureR func(*sim.Proc) error, rSrc func(b int) bucketSource, rDiskLen func() int64) error {

	scanBuf := scanBufFor(plan, e.res.MemoryBlocks)
	maxLoad := e.res.MemoryBlocks - scanBuf
	s := e.spec.S.Region
	for off := startOff; off < s.N; {
		var n int64 // fixed once a bucket commits, so checkpoints stay valid
		doneB := 0
		var fSB []device.File
		err := e.runUnit(p, fmt.Sprintf("S-chunk@%d", off), func(up *sim.Proc) error {
			if err := ensureR(up); err != nil {
				return err
			}
			if doneB == 0 {
				d := e.effectiveD() - rDiskLen()
				chunk := d - int64(sLay.parts)
				if chunk < 1 {
					return fmt.Errorf("%w: %d blocks left to buffer S over %d buckets", ErrNeedDisk, d, sLay.parts)
				}
				n = min(chunk, s.N-off)
			}
			if fSB != nil {
				freeAll(fSB)
				fSB = nil
			}
			var err error
			if fSB, err = e.stageS(up, sLay, off, n, nil); err != nil {
				return err
			}
			for b := doneB; b < sLay.parts; b++ {
				b := b
				if err := e.staged(up, func() error {
					return joinBucketPair(e, up, rSrc(b), diskBucket{fSB[b]}, maxLoad, scanBuf)
				}); err != nil {
					return err
				}
				doneB = b + 1
			}
			return nil
		})
		if fSB != nil {
			freeAll(fSB)
		}
		if err != nil {
			return err
		}
		e.stats.Iterations++
		e.stats.RScans++
		off += n
	}
	return nil
}

// DTGH is Disk–Tape Grace Hash Join (Section 5.1.2): sequential; hash
// R from tape into disk buckets, then repeatedly hash a d = D - |R|
// chunk of S to disk and join it bucket by bucket.
type DTGH struct{}

// Name implements Method.
func (DTGH) Name() string { return "Disk-Tape Grace Hash Join" }

// Symbol implements Method.
func (DTGH) Symbol() string { return "DT-GH" }

// footprint implements Method: D holds R's buckets, which exceed |R|
// by up to one partial block per bucket, plus an S chunk of at least
// one block over B buckets with the same partial-block slack.
func (DTGH) footprint(r, _ int64, res Resources) (Need, error) {
	plan, err := ghPlan(r, res)
	b := int64(plan.B)
	return Need{M: b + 1, D: r + 2*b + 2, dWhy: "|R|+2B+2", forR: true}, err
}

func (DTGH) run(e *env, p *sim.Proc) error {
	plan, err := ghPlan(e.spec.R.Region.N, e.res)
	if err != nil {
		return err
	}
	// Step I: hash R from tape to disk buckets, restartable as one unit.
	var fRB []device.File
	var skp *hashutil.SkewPlan
	ensure := func(up *sim.Proc) error { return e.ensureRBuckets(up, plan, &fRB, &skp) }
	if err := e.runUnit(p, "hash-R", ensure); err != nil {
		return err
	}
	e.markStepI(p)

	// Step II: iterate chunks of S sized to the spare disk space
	// (partitioning an n-block chunk can emit up to n + B blocks — one
	// partial per bucket — so each chunk leaves that slack). S follows
	// R's final partition map, skew-refined or not.
	err = ghStepIISeq(e, p, plan, probeLayout(plan, skp, e.res.MemoryBlocks), 0, ensure,
		func(b int) bucketSource { return diskBucket{fRB[b]} },
		func() int64 { return totalLen(fRB) })
	if err != nil {
		return err
	}
	freeAll(fRB)
	return nil
}

// CDTGH is Concurrent Disk–Tape Grace Hash Join (Section 5.1.4): as
// DT-GH, but the S bucket area on disk is double-buffered so hashing
// chunk i+1 from tape overlaps joining chunk i.
type CDTGH struct{}

// Name implements Method.
func (CDTGH) Name() string { return "Concurrent Disk-Tape Grace Hash Join" }

// Symbol implements Method.
func (CDTGH) Symbol() string { return "CDT-GH" }

// footprint implements Method: D holds R's buckets with up to one
// partial block each, and a double buffer whose chunk holds at least
// one block of S plus one partial-block slack per bucket — DT-GH's
// |R|+2B+2. Under SplitHalves a chunk gets half the buffer. A
// skew-refined layout has more partitions than B, which only the run
// knows; the run keeps its own test for that.
func (CDTGH) footprint(r, _ int64, res Resources) (Need, error) {
	plan, err := ghPlan(r, res)
	b := int64(plan.B)
	if res.Discipline == SplitHalves {
		return Need{M: b + 1, D: r + 3*b + 2, dWhy: "|R|+3B+2", forR: true}, err
	}
	return Need{M: b + 1, D: r + 2*b + 2, dWhy: "|R|+2B+2", forR: true}, err
}

func (CDTGH) run(e *env, p *sim.Proc) error {
	plan, err := ghPlan(e.spec.R.Region.N, e.res)
	if err != nil {
		return err
	}
	var fRB []device.File
	var skp *hashutil.SkewPlan
	ensure := func(up *sim.Proc) error { return e.ensureRBuckets(up, plan, &fRB, &skp) }
	if err := e.runUnit(p, "hash-R", ensure); err != nil {
		return err
	}
	e.markStepI(p)

	d := e.res.DiskBlocks - totalLen(fRB)
	sLay := probeLayout(plan, skp, e.res.MemoryBlocks)

	dbuf := e.newDoubleBuffer("s-buckets", d)
	// Chunks leave one block of slack per partition for partial-block spill.
	chunkCap := dbuf.ChunkCapacity() - int64(sLay.parts)
	if chunkCap < 1 {
		return fmt.Errorf("%w: %d blocks left to buffer S over %d buckets", ErrNeedDisk, d, sLay.parts)
	}

	// Degrade to the sequential Step II for the rest of S: same chunks
	// and buckets, no pipeline, checkpoints per bucket.
	rSrc := func(b int) bucketSource { return diskBucket{fRB[b]} }
	err = ghJoinPipeline(e, p, plan, sLay, chunkCap, dbuf, false,
		func(b int, _ bool) bucketSource { return rSrc(b) },
		func(next int64) error {
			return ghStepIISeq(e, p, plan, sLay, next, ensure, rSrc, func() int64 { return totalLen(fRB) })
		})
	if err != nil {
		return err
	}
	freeAll(fRB)
	return nil
}

// ghJoinPipeline is the concurrent Step II of CDT-GH and CTT-GH: a
// hasher proc partitions successive chunks of S into double-buffered
// disk bucket files while the caller joins the previous chunk bucket by
// bucket against rSrc, with output staged per chunk so a mid-chunk
// fault leaves no partial deliveries; tail redoes the failed chunk and
// the rest of S sequentially. With biDir, odd iterations visit the
// buckets in reverse order and rSrc reads them backward.
func ghJoinPipeline(e *env, p *sim.Proc, plan hashutil.Plan, sLay layout, chunkCap int64,
	dbuf buffer.DoubleBuffer, biDir bool,
	rSrc func(b int, backward bool) bucketSource, tail func(next int64) error) error {

	scanBuf := scanBufFor(plan, e.res.MemoryBlocks)
	maxLoad := e.res.MemoryBlocks - scanBuf
	s := e.spec.S.Region
	hash := func(hp *sim.Proc, q *sim.Queue[chunk], stop *bool) {
		for off, iter := int64(0), int64(0); off < s.N && !*stop; off, iter = off+chunkCap, iter+1 {
			n := min(chunkCap, s.N-off)
			var acq int64
			files, err := e.stageS(hp, sLay, off, n, func(fp *sim.Proc, blks int64) {
				dbuf.Acquire(fp, iter, blks)
				acq += blks
			})
			if err != nil {
				dbuf.Release(hp, iter, acq)
				q.Send(hp, chunk{iter: iter, off: off, err: err})
				return
			}
			q.Send(hp, chunk{iter: iter, off: off, n: n, files: files})
		}
	}
	release := func(c chunk, f device.File) {
		dbuf.Release(p, c.iter, f.Len())
		f.Free()
	}
	join := func(c chunk) error {
		backward := biDir && c.iter%2 == 1
		order := func(b int) int {
			if backward {
				return sLay.parts - 1 - b
			}
			return b
		}
		sp := e.span(p, "join-chunk", obs.AInt("off", c.off))
		defer sp.Close(p)
		err := e.staged(p, func() error {
			for b := 0; b < sLay.parts; b++ {
				idx := order(b)
				if err := joinBucketPair(e, p, rSrc(idx, backward), diskBucket{c.files[idx]}, maxLoad, scanBuf); err != nil {
					for ; b < sLay.parts; b++ {
						release(c, c.files[order(b)])
					}
					return err
				}
				release(c, c.files[idx])
			}
			return nil
		})
		if err == nil {
			e.stats.RScans++
			e.stats.Iterations++
		}
		return err
	}
	drop := func(c chunk) {
		for _, f := range c.files {
			release(c, f)
		}
	}
	return e.pipeline(p, "gh-chunks", "s-hasher", hash, join, drop, tail)
}
