package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sim"
)

// rPlace is where a plan's Step I puts R.
type rPlace int

const (
	// rDiskCopy copies R whole to disk; Step II builds on S chunks.
	rDiskCopy rPlace = iota
	// rDiskBuckets hashes R into disk bucket files.
	rDiskBuckets
	// rTapeBuckets hashes R onto its own tape's scratch space.
	rTapeBuckets
	// rCrossTape hashes R onto S's tape, then S onto R's.
	rCrossTape
)

// sStage is how a plan's Step II brings each chunk of S to the join.
type sStage int

const (
	// sMemory reads the chunk from tape into memory.
	sMemory sStage = iota
	// sDiskCopy stages the chunk whole through a disk double buffer.
	sDiskCopy
	// sDiskBuckets hashes the chunk into disk bucket files.
	sDiskBuckets
	// sTapeBuckets finds all of S already partitioned on tape.
	sTapeBuckets
)

// plan is one row of the paper's Table 2: a method as a choice along
// each of its axes. One executor (run) reads the row, footprint derives
// the row's resource needs, and the method types are names for rows.
type plan struct {
	r rPlace
	s sStage
	// overlap runs a producer proc one chunk ahead of the join in Step
	// II, through the row's double buffer: two memory buffers of half a
	// chunk each for a memory-staged S, a disk double buffer otherwise.
	// It also pipelines a tape row's Step I spool.
	overlap bool
	// buckets plans R's partitions; nil when R is not partitioned.
	buckets func(r, s int64, res Resources) (hashutil.Plan, error)
}

// The seven paper methods as the rows of Table 2. CDT-NB/MB and CDT-GH
// are their sequential siblings with overlap on.
var (
	dtNB    = plan{r: rDiskCopy, s: sMemory}
	cdtNBMB = plan{r: rDiskCopy, s: sMemory, overlap: true}
	cdtNBDB = plan{r: rDiskCopy, s: sDiskCopy, overlap: true}
	dtGH    = plan{r: rDiskBuckets, s: sDiskBuckets, buckets: ghPlan}
	// CDT-GH and CTT-GH hash chunk i+1 while the joiner holds an R
	// bucket, so their MemHighWater can reach 2M (see Need.M).
	cdtGH = plan{r: rDiskBuckets, s: sDiskBuckets, overlap: true, buckets: ghPlan}
	cttGH = plan{r: rTapeBuckets, s: sDiskBuckets, overlap: true, buckets: planTapeTape}
	ttGH  = plan{r: rCrossTape, s: sTapeBuckets, buckets: planTT}
)

// footprint is the row's Table 2 entry (Method.footprint).
func (pl *plan) footprint(r, s int64, res Resources) (Need, error) {
	switch pl.r {
	case rDiskCopy:
		// M holds Mr plus a block for each S buffer: two when a producer
		// reads ahead into memory, or fills one half of a split disk
		// buffer. D holds R, plus for a disk-staged S the staging area
		// (Table 2's |R| + |S_i|, as dbStaging measures it).
		floor := int64(2)
		if pl.overlap && (pl.s == sMemory || res.Discipline == SplitHalves) {
			floor = 3
		}
		if err := memFloor(res, floor); err != nil {
			return Need{}, err
		}
		if pl.s == sDiskCopy {
			return Need{M: floor, D: r + dbStaging(res, s), dWhy: "|R|+staged S", forR: true}, nil
		}
		return Need{M: floor, D: r, dWhy: "|R|", forR: true}, nil
	case rDiskBuckets:
		// D holds R's buckets, which exceed |R| by up to one partial
		// block per bucket, plus an S chunk of at least one block over B
		// buckets with the same partial-block slack; an overlapped row's
		// chunk gets half its buffer under SplitHalves. A skew-refined
		// layout has more partitions than B, which only the run knows;
		// the run keeps its own test for that.
		bp, err := pl.buckets(r, s, res)
		b := int64(bp.B)
		if pl.overlap && res.Discipline == SplitHalves {
			return Need{M: b + 1, D: r + 3*b + 2, dWhy: "|R|+3B+2", forR: true}, err
		}
		return Need{M: b + 1, D: r + 2*b + 2, dWhy: "|R|+2B+2", forR: true}, err
	}
	bp, err := pl.buckets(r, s, res)
	if err != nil {
		return Need{}, err
	}
	b := int64(bp.B)
	if pl.r == rCrossTape {
		// Disk must assemble at least one bucket of either relation
		// (Table 2 says "any" disk space under the idealization that
		// buckets can be fragmented; we assemble buckets contiguously,
		// which needs a bucket's worth); each tape needs scratch for the
		// other relation's hashed copy, plus a partial block per bucket.
		return Need{M: b + 1, D: 2 * estBucketBlocks(s, bp.B), dWhy: "two S buckets", TR: s + b, TS: r + b}, nil
	}
	// D assembles one R bucket with headroom in Step I and, in Step II,
	// buffers an S chunk of at least one block over B buckets; R's tape
	// has scratch for its hashed copy (T_R = |R| in Table 2, plus a
	// partial block per bucket).
	need := Need{M: b + 1, TR: r + b}
	need.D, need.dWhy = 2*estBucketBlocks(r, bp.B), "two R buckets"
	chunk := b + 1
	if res.Discipline == SplitHalves {
		chunk *= 2 // a chunk gets half the buffer
	}
	if chunk > need.D {
		need.D, need.dWhy = chunk, "B+1"
	}
	return need, nil
}

// DTNB is Disk–Tape Nested Block Join (Section 5.1.1): sequential;
// copy R to disk, then for each memory-sized chunk of S, scan R.
type DTNB struct{}

// CDTNBMB is Concurrent Disk–Tape Nested Block Join with memory
// buffering (Section 5.1.3): two memory buffers for S let the next
// chunk stream from tape while the previous chunk joins with R, at the
// price of halving the chunk size.
type CDTNBMB struct{}

// CDTNBDB is Concurrent Disk–Tape Nested Block Join with disk
// buffering (Section 5.1.3): S is staged through a double-buffered
// disk area, so chunks are full memory size (twice CDT-NB/MB's) while
// tape input still overlaps the join.
type CDTNBDB struct{}

// DTGH is Disk–Tape Grace Hash Join (Section 5.1.2): sequential; hash
// R from tape into disk buckets, then repeatedly hash a d = D - |R|
// chunk of S to disk and join it bucket by bucket.
type DTGH struct{}

// CDTGH is Concurrent Disk–Tape Grace Hash Join (Section 5.1.4): as
// DT-GH, but the S bucket area on disk is double-buffered so hashing
// chunk i+1 from tape overlaps joining chunk i.
type CDTGH struct{}

// CTTGH is Concurrent Tape–Tape Grace Hash Join (Section 5.2.1): R is
// hashed from tape to tape using disk as an assembly area, then S is
// hashed to disk a chunk at a time (double-buffered) and joined with
// the tape-resident R buckets. The only method whose disk requirement
// is independent of |R| — the paper's sole candidate for very large
// joins.
type CTTGH struct{}

// TTGH is Tape–Tape Grace Hash Join (Section 5.2.2): fully sequential.
// Step I hashes R onto the S tape's scratch space (the other tape is
// the target so no seeks alternate between source and destination on
// one cartridge), then hashes S onto the R tape the same way. Step II
// reads each R bucket into memory and scans the corresponding S
// bucket. Trades the largest tape space requirement (T_R = |S|,
// T_S = |R|) for the smallest disk requirement.
type TTGH struct{}

// Name implements Method.
func (DTNB) Name() string { return "Disk-Tape Nested Block Join" }

// Name implements Method.
func (CDTNBMB) Name() string {
	return "Concurrent Disk-Tape Nested Block Join with Memory Buffering"
}

// Name implements Method.
func (CDTNBDB) Name() string {
	return "Concurrent Disk-Tape Nested Block Join with Disk Buffering"
}

// Name implements Method.
func (DTGH) Name() string { return "Disk-Tape Grace Hash Join" }

// Name implements Method.
func (CDTGH) Name() string { return "Concurrent Disk-Tape Grace Hash Join" }

// Name implements Method.
func (CTTGH) Name() string { return "Concurrent Tape-Tape Grace Hash Join" }

// Name implements Method.
func (TTGH) Name() string { return "Tape-Tape Grace Hash Join" }

// Symbol implements Method.
func (DTNB) Symbol() string { return "DT-NB" }

// Symbol implements Method.
func (CDTNBMB) Symbol() string { return "CDT-NB/MB" }

// Symbol implements Method.
func (CDTNBDB) Symbol() string { return "CDT-NB/DB" }

// Symbol implements Method.
func (DTGH) Symbol() string { return "DT-GH" }

// Symbol implements Method.
func (CDTGH) Symbol() string { return "CDT-GH" }

// Symbol implements Method.
func (CTTGH) Symbol() string { return "CTT-GH" }

// Symbol implements Method.
func (TTGH) Symbol() string { return "TT-GH" }

func (DTNB) footprint(r, s int64, res Resources) (Need, error) { return dtNB.footprint(r, s, res) }
func (CDTNBMB) footprint(r, s int64, res Resources) (Need, error) {
	return cdtNBMB.footprint(r, s, res)
}
func (CDTNBDB) footprint(r, s int64, res Resources) (Need, error) {
	return cdtNBDB.footprint(r, s, res)
}
func (DTGH) footprint(r, s int64, res Resources) (Need, error)  { return dtGH.footprint(r, s, res) }
func (CDTGH) footprint(r, s int64, res Resources) (Need, error) { return cdtGH.footprint(r, s, res) }
func (CTTGH) footprint(r, s int64, res Resources) (Need, error) { return cttGH.footprint(r, s, res) }
func (TTGH) footprint(r, s int64, res Resources) (Need, error)  { return ttGH.footprint(r, s, res) }

func (DTNB) run(e *env, p *sim.Proc) error    { return dtNB.run(e, p) }
func (CDTNBMB) run(e *env, p *sim.Proc) error { return cdtNBMB.run(e, p) }
func (CDTNBDB) run(e *env, p *sim.Proc) error { return cdtNBDB.run(e, p) }
func (DTGH) run(e *env, p *sim.Proc) error    { return dtGH.run(e, p) }
func (CDTGH) run(e *env, p *sim.Proc) error   { return cdtGH.run(e, p) }
func (CTTGH) run(e *env, p *sim.Proc) error   { return cttGH.run(e, p) }
func (TTGH) run(e *env, p *sim.Proc) error    { return ttGH.run(e, p) }

// executor is one run of a plan: the row, the run's env, and what Step
// I left for Step II.
type executor struct {
	*plan
	*env

	fR       device.File     // R's disk copy (rDiskCopy)
	fRB      []device.File   // R's disk buckets (rDiskBuckets)
	rTape    device.Drive    // the drive holding R's tape buckets
	rRegions []device.Region // R's tape buckets (rTapeBuckets, rCrossTape)
	sRegions []device.Region // S's tape buckets (rCrossTape)
	bp       hashutil.Plan
	// skp is R's skew-refined partition map, nil while the uniform plan
	// stands; fixed says R's first complete scan has decided it.
	skp   *hashutil.SkewPlan
	fixed bool

	// Step II sizing: a Nested Block row probes R mr blocks at a time
	// against sChunk-block S chunks; a Grace Hash row routes S by sLay
	// and loads R buckets maxLoad blocks at a time beside a scanBuf-block
	// S stream. A disk-staging producer stages ahead-block chunks.
	mr, sChunk, ahead int64
	sLay              layout
	scanBuf, maxLoad  int64
	bufs              *sim.Container // the memory-staged producer's two buffers
}

// run executes the row: Step I by where R goes, then Step II by how S
// arrives and whether a producer runs ahead of the join.
func (pl *plan) run(e *env, p *sim.Proc) error {
	x := &executor{plan: pl, env: e}
	if err := x.stepI(p); err != nil {
		return err
	}
	e.markStepI(p)
	if err := x.stepII(p); err != nil {
		return err
	}
	e.freeR(x.fR)
	freeAll(x.fRB)
	return nil
}

// stepI puts R where the row says: a disk copy or disk buckets as one
// restartable unit (ensureR), tape buckets window by window
// (hashToTape).
func (x *executor) stepI(p *sim.Proc) error {
	if x.buckets != nil {
		var err error
		if x.bp, err = x.buckets(x.spec.R.Region.N, x.spec.S.Region.N, x.res); err != nil {
			return err
		}
	}
	switch x.r {
	case rDiskCopy:
		return x.runUnit(p, "copy-R", x.ensureR)
	case rDiskBuckets:
		return x.runUnit(p, "hash-R", x.ensureR)
	}
	// R's buckets go onto its own tape, or onto S's with S's then hashed
	// onto R's under the same (possibly skew-refined) map, so partition
	// i of each side holds the same keys.
	x.rTape = x.driveR
	if x.r == rCrossTape {
		x.rTape = x.driveS
	}
	var err error
	x.rRegions, err = x.hashToTape(p, x.driveR, x.spec.R, x.filterR(), x.rTape)
	if err != nil || x.r != rCrossTape {
		return err
	}
	x.sRegions, err = x.hashToTape(p, x.driveS, x.spec.S, x.filterS(), x.driveR)
	return err
}

// ensureR re-stages R's disk copy or disk buckets when they are absent
// or lost extents to a failed disk, paying a fresh tape scan of R. Disk
// buckets come from one hashPass, with the oversized ones of a refined
// map split on disk (repairRSkew). R's tape buckets survive a disk loss.
func (x *executor) ensureR(p *sim.Proc) error {
	switch x.r {
	case rDiskCopy:
		if x.fR != nil && !x.fR.Lost() {
			return nil
		}
		x.freeR(x.fR)
		var err error
		x.fR, err = copyRToDisk(x.env, p)
		return err
	case rDiskBuckets:
		if x.fRB != nil && !anyLost(x.fRB) {
			return nil
		}
		freeAll(x.fRB)
		x.fRB = nil
		sp := x.span(p, "hash-R", obs.AInt("buckets", int64(x.bp.B)))
		files, err := x.hashPass(p, x.driveR, x.spec.R, x.filterR(), nil, "rb")
		sp.Close(p)
		if err == nil && x.skp != nil {
			files, err = x.repairRSkew(p, files)
		}
		if err != nil {
			return err
		}
		x.fRB = files
		x.stats.RScans++
	}
	return nil
}

// hashPass is one Step I scan: it partitions rel, read from src, into
// disk bucket files named prefix<bucket> under the uniform plan, keeping
// only the listed buckets (nil: all). R's first complete scan with
// SkewAware on also sketches every key and counts every bucket, then
// fixes R's partition map against the single-load budget: whatever
// memory remains next to the join phase's streaming buffer. Every later
// scan (a disk row's re-stage, a tape window's restart, TT-GH's S pass)
// reuses that map. Sketch, census and map are deterministic, so a
// recovery replay lands on the same layout.
func (x *executor) hashPass(p *sim.Proc, src device.Drive, rel *relation.Relation, keep keepFn, buckets []int, prefix string) ([]device.File, error) {
	pass := partPass{
		src: tapeBucket{drive: src, region: rel.Region}, lay: layoutOf(x.bp), parts: buckets, prefix: prefix,
		perBlk: rel.TuplesPerBlock, tag: rel.Tag, keep: keep,
	}
	sketch := rel == x.spec.R && x.res.SkewAware && !x.fixed
	if sketch {
		pass.sketch = hashutil.NewFreqSketch(hashutil.DefaultSketchK)
		pass.census = make([]int64, x.bp.B)
	}
	files, err := x.partition(p, pass)
	if err != nil || !sketch {
		return files, err
	}
	m, perBlk := x.res.MemoryBlocks, int64(rel.TuplesPerBlock)
	sizes := make([]int64, x.bp.B)
	for i, c := range pass.census {
		sizes[i] = (c + perBlk - 1) / perBlk
	}
	x.fixed = true
	if sp := hashutil.BuildSkewPlan(x.bp, sizes, pass.sketch, rel.TuplesPerBlock, m-scanBufFor(x.bp, m), int(m-1)); !sp.Trivial() {
		x.skp = sp
		x.stats.HeavyHitters, x.stats.SkewPartitions = len(sp.Heavy), sp.NParts
	}
	return files, nil
}

// rBucket is R's bucket b where Step I left it, a tape bucket read
// backward on request.
func (x *executor) rBucket(b int, backward bool) bucketSource {
	if x.r == rDiskBuckets {
		return diskBucket{x.fRB[b]}
	}
	return tapeBucket{drive: x.rTape, region: x.rRegions[b], reverse: backward}
}

// stepII joins S with R. A sequential row runs its build side's chunk
// loop; an overlapped row runs that loop's per-chunk join under
// env.pipeline, behind its S staging's producer, with the same loop as
// the tail. S already partitioned on tape is joined pair by pair.
func (x *executor) stepII(p *sim.Proc) error {
	m := x.res.MemoryBlocks
	if x.r == rDiskCopy {
		x.mr, x.sChunk = nbSplit(m)
		if x.s == sMemory && x.overlap {
			x.sChunk /= 2 // each of the two buffers
		}
	} else {
		x.sLay = probeLayout(x.bp, x.skp, m)
		x.scanBuf = scanBufFor(x.bp, m)
		x.maxLoad = m - x.scanBuf
	}
	if x.s == sTapeBuckets {
		return x.tapePairs(p)
	}
	if !x.overlap {
		return x.chunks(p, 0)
	}
	queue, producer, produce := "gh-chunks", "s-hasher", x.stageAhead
	switch x.s {
	case sMemory:
		// Two physical buffers: the reader may fill one while the joiner
		// drains the other. Interleaving is impossible here because the
		// joiner needs its chunk intact for the whole iteration (Section
		// 5.1.3 footnote), hence the buffer-count container.
		x.bufs = sim.NewContainer(x.k, "nb-bufs", 2, 2)
		queue, producer = "nb-chunks", "s-reader"
		produce = func(hp *sim.Proc, q *sim.Queue[chunk], stop *bool) {
			x.readAhead(hp, q, stop, x.bufs, x.driveS, x.spec.S.Region, x.sChunk, "stage-S")
		}
	case sDiskCopy:
		queue, producer = "db-chunks", "s-stager"
		x.ahead = x.newDoubleBuffer("s-dbuf", x.sChunk).ChunkCapacity()
	default:
		// The S buckets take the disk R leaves: the surviving D less R's
		// disk buckets, or all of it when R is on tape (|S_i| = d = D).
		// Chunks leave one block of slack per partition for
		// partial-block spill.
		d := x.effectiveD()
		if x.r == rDiskBuckets {
			d -= totalLen(x.fRB)
		}
		if x.ahead = x.newDoubleBuffer("s-buckets", d).ChunkCapacity() - int64(x.sLay.parts); x.ahead < 1 {
			if x.r == rDiskBuckets {
				return fmt.Errorf("%w: %d blocks left to buffer S over %d buckets", ErrNeedDisk, d, x.sLay.parts)
			}
			return fmt.Errorf("%w: D=%d cannot buffer S over %d buckets", ErrNeedDisk, d, x.sLay.parts)
		}
	}
	consume := func(c chunk) error { return x.nbJoin(p, c) }
	if x.r != rDiskCopy {
		consume = func(c chunk) error {
			done := 0
			return x.joinBuckets(p, c, &done, false)
		}
	}
	return x.pipeline(p, queue, producer, produce, consume,
		func(c chunk) {
			x.dropBlocks(p, x.bufs, c)
			for _, f := range c.files {
				x.release(p, c, f)
			}
		},
		func(next int64) error { return x.chunks(p, next) })
}

// chunks is the build side's chunk loop with overlap off, from S block
// off on: a sequential row's Step II and an overlapped row's tail.
func (x *executor) chunks(p *sim.Proc, off int64) error {
	if x.r == rDiskCopy {
		return x.nbChunks(p, off)
	}
	return x.ghChunks(p, off, x.spec.S.Region.N, 0)
}

// release returns one file of a disk-staged chunk to the double buffer
// and frees it.
func (x *executor) release(p *sim.Proc, c chunk, f device.File) {
	x.dbuf.Release(p, c.iter, f.Len())
	f.Free()
}

// stageAhead is the producer of a row that stages S on disk: it stages
// successive chunks of S one chunk ahead of the join, each in its
// iteration's half of the double buffer.
func (x *executor) stageAhead(hp *sim.Proc, q *sim.Queue[chunk], stop *bool) {
	s := x.spec.S.Region
	for off, iter := int64(0), int64(0); off < s.N && !*stop; off, iter = off+x.ahead, iter+1 {
		n := min(x.ahead, s.N-off)
		files, err := x.stageChunk(hp, iter, off, n)
		if err != nil {
			q.Send(hp, chunk{iter: iter, off: off, err: err})
			return
		}
		q.Send(hp, chunk{iter: iter, off: off, n: n, files: files})
	}
}

// stageChunk stages S's blocks [off, off+n) on disk as the previous
// iteration releases double-buffer space: hashed into bucket files, or
// copied into one file through a small transfer buffer (ignored in M
// per Section 6). A failure returns the space it acquired.
func (x *executor) stageChunk(hp *sim.Proc, iter, off, n int64) ([]device.File, error) {
	var acq int64
	reserve := func(fp *sim.Proc, blks int64) {
		x.dbuf.Acquire(fp, iter, blks)
		acq += blks
	}
	if x.s == sDiskBuckets {
		files, err := x.stageS(hp, x.sLay, off, n, reserve)
		if err != nil {
			x.dbuf.Release(hp, iter, acq)
		}
		return files, err
	}
	sp := x.span(hp, "stage-S", obs.AInt("off", off))
	defer sp.Close(hp)
	f, err := x.disks.Create("schunk", nil)
	if err != nil {
		return nil, err
	}
	for sub := int64(0); sub < n && err == nil; sub += x.res.IOChunk {
		g := min(x.res.IOChunk, n-sub)
		reserve(hp, g)
		var blks []block.Block
		if blks, err = x.tapeRead(hp, x.driveS, x.spec.S.Region.Start+addr(off+sub), g); err == nil {
			err = f.Append(hp, blks)
		}
	}
	if err != nil {
		x.dbuf.Release(hp, iter, acq)
		f.Free()
		return nil, err
	}
	return []device.File{f}, nil
}

// nbChunks is the Nested Block chunk loop: from block off on, each
// sChunk-block chunk of S is one restartable unit with staged output,
// read from tape by nbJoin.
func (x *executor) nbChunks(p *sim.Proc, off int64) error {
	s := x.spec.S.Region
	for ; off < s.N; off += x.sChunk {
		c := chunk{off: off, n: min(x.sChunk, s.N-off)}
		err := x.runUnit(p, fmt.Sprintf("S-chunk@%d", off), func(up *sim.Proc) error {
			return x.nbJoin(up, c)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// nbJoin is the Nested Block per-chunk join: it builds a hash table
// over S chunk c and probes all of R against it, output staged. c holds
// blocks readAhead charged to M and a buffer, or a file on the disk
// double buffer, read back releasing space as it goes so the stager can
// refill it (the interleaved scheme of Section 4); or, in the chunk
// loop, nothing yet: it is read from S's tape once R is sure to be on
// disk.
func (x *executor) nbJoin(p *sim.Proc, c chunk) error {
	if c.blks != nil {
		defer x.dropBlocks(p, x.bufs, c)
	}
	sp := x.span(p, "join-chunk", obs.AInt("off", c.off))
	defer sp.Close(p)
	if c.blks == nil {
		if c.files == nil {
			if err := x.ensureR(p); err != nil {
				return err
			}
		}
		x.mem.acquire(c.n)
		defer x.mem.release(c.n)
	}
	table := newHashTable(c.n, x.spec.S.TuplesPerBlock)
	defer table.release()
	keepS := x.filterS()
	var err error
	switch {
	case c.blks != nil:
		err = table.addBlocks(c.blks, keepS)
	case c.files != nil:
		var read int64
		err = x.scan(p, diskBucket{c.files[0]}, x.res.IOChunk, func(blks []block.Block, _ bool) error {
			read += int64(len(blks))
			x.dbuf.Release(p, c.iter, int64(len(blks)))
			return table.addBlocks(blks, keepS)
		})
		if err != nil {
			x.dbuf.Release(p, c.iter, c.n-read)
		}
		c.files[0].Free()
	default:
		err = x.scan(p, tapeBucket{drive: x.driveS, region: x.spec.S.Region.Sub(c.off, c.n)}, c.n,
			func(blks []block.Block, _ bool) error { return table.addBlocks(blks, keepS) })
	}
	if err == nil {
		err = x.staged(p, func() error { return scanRAndProbe(x.env, p, x.fR, x.mr, table) })
	}
	if err == nil {
		x.stats.Iterations++
	}
	return err
}

// ghChunks is the Grace Hash chunk loop: over S's blocks [off, end),
// hash a chunk that fits the surviving disk beside R into bucket files
// (by sLay, R's final partition map) and join each with its R bucket,
// from bucket lo on. Each chunk is one restartable unit that commits
// per bucket. A restart frees the failed attempt's bucket files, lets
// ensureR re-stage R into their room after a disk loss, and skips
// committed buckets; if the chunk, frozen by its first commit, no
// longer fits, it joins the range in chunks that do, with only the
// buckets not yet committed.
func (x *executor) ghChunks(p *sim.Proc, off, end int64, lo int) error {
	parts := x.sLay.parts
	for off < end {
		var n int64
		done, split := lo, false
		var c chunk
		err := x.runUnit(p, fmt.Sprintf("S-chunk@%d", off), func(up *sim.Proc) error {
			freeAll(c.files)
			c.files = nil
			if err := x.ensureR(up); err != nil {
				return err
			}
			d := x.effectiveD() - totalLen(x.fRB)
			switch fit := d - int64(parts); {
			case done == lo:
				if fit < 1 {
					return fmt.Errorf("%w: %d blocks left to buffer S over %d buckets", ErrNeedDisk, d, parts)
				}
				n = min(fit, end-off)
			case n > fit:
				split = true
				return nil
			}
			var err error
			if c.files, err = x.stageS(up, x.sLay, off, n, nil); err != nil {
				return err
			}
			return x.joinBuckets(up, c, &done, true)
		})
		freeAll(c.files)
		if err != nil {
			return err
		}
		if split {
			if err := x.ghChunks(p, off, off+n, done); err != nil {
				return err
			}
		}
		off += n
	}
	return nil
}

// joinBuckets is the Grace Hash per-chunk join: it joins S chunk c's
// bucket files with R's buckets from *done on, advancing *done past
// each pair. With perBucket (the chunk loop) each pair commits on its
// own and the unit keeps the files. Otherwise (the pipeline) the chunk
// commits as one, each file returns to the double buffer once joined,
// and on a bidirectional drive odd chunks visit R's tape buckets
// backward, so the head ends one chunk where the next begins (the
// paper's footnote 2).
func (x *executor) joinBuckets(p *sim.Proc, c chunk, done *int, perBucket bool) error {
	parts := x.sLay.parts
	backward := !perBucket && x.r == rTapeBuckets && x.rTape.Config().BiDirectional && c.iter%2 == 1
	order := func(b int) int {
		if backward {
			return parts - 1 - b
		}
		return b
	}
	pairs := func() error {
		for b := *done; b < parts; b++ {
			i := order(b)
			pair := func() error {
				return joinBucketPair(x.env, p, x.rBucket(i, backward), diskBucket{c.files[i]}, x.maxLoad, x.scanBuf)
			}
			var err error
			if perBucket {
				err = x.staged(p, pair)
			} else {
				err = pair()
				x.release(p, c, c.files[i])
			}
			if err != nil {
				for b++; !perBucket && b < parts; b++ {
					x.release(p, c, c.files[order(b)])
				}
				return err
			}
			*done = b + 1
		}
		return nil
	}
	var err error
	if perBucket {
		err = pairs()
	} else {
		sp := x.span(p, "join-chunk", obs.AInt("off", c.off))
		err = x.staged(p, pairs)
		sp.Close(p)
	}
	if err == nil {
		x.stats.RScans++
		x.stats.Iterations++
	}
	return err
}

// tapePairs is Step II with both sides already partitioned on tape: R
// partitions on the S tape and S partitions on the R tape, both in
// spool order. Each pair is one restartable unit with staged output —
// both inputs are on tape, so any retry simply re-reads them.
func (x *executor) tapePairs(p *sim.Proc) error {
	for b := 0; b < x.sLay.parts; b++ {
		err := x.runUnit(p, fmt.Sprintf("bucket %d", b), func(up *sim.Proc) error {
			return x.staged(up, func() error {
				s := tapeBucket{drive: x.driveR, region: x.sRegions[b]}
				return joinBucketPair(x.env, up, x.rBucket(b, false), s, x.maxLoad, x.scanBuf)
			})
		})
		if err != nil {
			return err
		}
		x.stats.Iterations++
	}
	x.stats.RScans++ // Step II reads the hashed R once in full
	return nil
}
