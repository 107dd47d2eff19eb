package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/sim"
)

// symPlan is the partition layout of a symmetric streaming hash join:
// both relations hash into p partitions; the first k stay resident as
// dual in-memory tables and join at arrival, the rest spill both sides
// to disk scratch and join in a cleanup pass.
type symPlan struct {
	p int // total partitions
	k int // resident partitions (0..k-1)
	// perPartR/perPartS estimate one partition's size per side under
	// uniform hashing, rounded up.
	perPartR, perPartS int64
	// batch is the reader batch size in blocks (per drive).
	batch int64
	// writeBuf is the per-spill-partition pending-flush size in blocks.
	writeBuf int64
	// maxLoad/scanBuf size the cleanup pass: R-spill memory loads and
	// the S-spill streaming buffer.
	maxLoad, scanBuf int64
}

func (s symPlan) spillParts() int { return s.p - s.k }

// diskNeed estimates scratch blocks for the spilled partitions, with
// one slack block per side per partition for partial final blocks.
func (s symPlan) diskNeed() int64 {
	return int64(s.spillParts()) * (s.perPartR + s.perPartS + 2)
}

// symPlanFor derives the layout from the resources. Memory splits
// three ways for the streaming phase: half of M hosts the resident
// dual tables, a quarter the spill write buffers (which bounds the
// partition count at M/8 — one pending block per side per partition is
// the floor), and a quarter the two readers' in-flight batches.
//
// The partition count starts at 2|R|/M (an R partition loadable in
// half of memory for the cleanup pass) and is raised — within the M/8
// cap — until one partition of R and S together fits the resident
// budget. Streaming output needs at least one resident partition;
// without the raise, any S much larger than M would defer every match
// to the cleanup pass and the first tuple would arrive no earlier than
// a materializing method's. When even the raised count cannot make a
// partition fit (M < ~4·sqrt(|R|+|S|)), k is 0 and the method degrades
// to a Grace-style two-phase join.
func symPlanFor(rN, sN int64, res Resources) symPlan {
	m := res.MemoryBlocks
	pCap := int(m / 8)
	if pCap < 2 {
		pCap = 2
	}
	p := int((2*rN + m - 1) / m)
	if p < 2 {
		p = 2
	}
	budget := m / 2
	denom := budget - 2 // ceil rounding can cost a block per side
	if denom < 1 {
		denom = 1
	}
	if need := int((rN + sN + denom - 1) / denom); p < need {
		p = need
	}
	if p > pCap {
		p = pCap
	}
	perR := (rN + int64(p) - 1) / int64(p)
	perS := (sN + int64(p) - 1) / int64(p)
	k := 0
	if per := perR + perS; per > 0 {
		k = int(budget / per)
	}
	if k > p {
		k = p
	}
	batch := res.IOChunk
	if cap := m / 16; batch > cap {
		batch = cap
	}
	if batch < 1 {
		batch = 1
	}
	wb := int64(1)
	if spill := p - k; spill > 0 {
		wb = (m / 4) / int64(2*spill)
		if wb < 1 {
			wb = 1
		}
	}
	scanBuf := batch
	maxLoad := m - scanBuf
	if maxLoad < 1 {
		maxLoad = 1
	}
	return symPlan{
		p: p, k: k, perPartR: perR, perPartS: perS,
		batch: batch, writeBuf: wb, maxLoad: maxLoad, scanBuf: scanBuf,
	}
}

// SymHash is the symmetric streaming hash join (SYM-H): both relations
// stream concurrently from their drives, hash-partitioned on arrival.
// Resident partitions keep dual in-memory hash tables — each arriving
// tuple probes the other side's table and then inserts into its own,
// so every match is emitted exactly once, by whichever tuple of the
// pair arrives later. The method therefore produces its first output
// pair as soon as two matching tuples have streamed in, instead of
// after a full Step I — the time-to-first-tuple method of the
// streaming-execution experiments. Partitions that do not fit the
// memory budget spill both sides to disk scratch and join in a
// Grace-style cleanup pass after the streams drain.
//
// Recovery is narrower than for the staged methods: the pipelined
// phase delivers output as it happens, so there is no unit restart for
// it — readDev's in-place read retries still apply, but a drive loss
// mid-stream cannot transparently re-plan once pairs have been
// delivered (Exec fails with a typed error instead). The cleanup pass
// joins spilled partitions under the normal staged/runUnit discipline.
type SymHash struct{}

// Name implements Method.
func (SymHash) Name() string { return "Symmetric Streaming Hash Join" }

// Symbol implements Method.
func (SymHash) Symbol() string { return "SYM-H" }

// footprint implements Method: M >= 4 for the reader batches plus a
// minimal resident budget, and disk scratch for the spilled share of
// both relations when the resident budget cannot hold everything.
func (SymHash) footprint(r, s int64, res Resources) (Need, error) {
	if err := memFloor(res, 4); err != nil {
		return Need{}, err
	}
	need := Need{M: 4, dWhy: "spilled partitions"}
	if pl := symPlanFor(r, s, res); pl.spillParts() > 0 {
		need.D = pl.diskNeed()
	}
	return need, nil
}

func (SymHash) run(e *env, p *sim.Proc) error {
	pl := symPlanFor(e.spec.R.Region.N, e.spec.S.Region.N, e.res)
	sp := e.span(p, "sym-stream",
		obs.AInt("partitions", int64(pl.p)), obs.AInt("resident", int64(pl.k)))

	// Resident dual tables for partitions 0..k-1.
	rTabs := make([]*hashTable, pl.k)
	sTabs := make([]*hashTable, pl.k)
	for i := 0; i < pl.k; i++ {
		rTabs[i] = newHashTable(pl.perPartR, e.spec.R.TuplesPerBlock)
		sTabs[i] = newHashTable(pl.perPartS, e.spec.S.TuplesPerBlock)
	}

	// Spill files for partitions k..p-1, created lazily on first flush
	// and freed exactly once whether the run completes, stops early or
	// fails.
	rFiles := make([]device.File, pl.p)
	sFiles := make([]device.File, pl.p)
	freeAt := func(i int) {
		if rFiles[i] != nil {
			rFiles[i].Free()
			rFiles[i] = nil
		}
		if sFiles[i] != nil {
			sFiles[i].Free()
			sFiles[i] = nil
		}
	}
	defer func() {
		for i := range rFiles {
			freeAt(i)
		}
	}()
	flushTo := func(files []device.File, prefix string) flushFn {
		return func(fp *sim.Proc, bkt int, blks []block.Block) error {
			if files[bkt] == nil {
				f, err := e.disks.Create(fmt.Sprintf("%s%d", prefix, bkt), nil)
				if err != nil {
					return err
				}
				files[bkt] = f
			}
			return files[bkt].Append(fp, blks)
		}
	}
	deferredOnly := func(bkt int) bool { return bkt >= pl.k }
	spillR := newPartitioner(pl.p, pl.writeBuf, e.spec.R.TuplesPerBlock, e.spec.R.Tag, flushTo(rFiles, "symR"))
	spillR.only = deferredOnly
	spillS := newPartitioner(pl.p, pl.writeBuf, e.spec.S.TuplesPerBlock, e.spec.S.Tag, flushTo(sFiles, "symS"))
	spillS.only = deferredOnly

	// Memory budget for the streaming phase: resident tables plus the
	// spill write buffers. The reader batches are ledgered separately
	// by the readers below (acquired on read, released after routing).
	streamMem := min(e.res.MemoryBlocks*3/4, int64(pl.k)*(pl.perPartR+pl.perPartS))
	if pl.spillParts() > 0 {
		streamMem += 2 * int64(pl.spillParts()) * pl.writeBuf
	}
	e.mem.acquire(streamMem)
	streamMemHeld := true
	releaseStreamMem := func() {
		if streamMemHeld {
			streamMemHeld = false
			e.mem.release(streamMem)
		}
	}
	defer releaseStreamMem()

	// Both drives stream concurrently; per-side buffer containers keep
	// each reader at most two batches ahead so neither side can starve
	// the other of memory. The queue is never closed — two producers
	// can't both close it — so each reader sends an eof marker instead
	// and the joiner drains until it has seen both.
	q := sim.NewQueue[chunk](e.k, "sym-chunks", 1)
	bufsR := sim.NewContainer(e.k, "sym-bufs-R", 2, 2)
	bufsS := sim.NewContainer(e.k, "sym-bufs-S", 2, 2)
	stop := false
	spawnReader := func(name string, bufs *sim.Container, drive device.Drive, region device.Region) *sim.Proc {
		return e.k.Spawn(name, func(rp *sim.Proc) {
			e.readAhead(rp, q, &stop, bufs, drive, region, pl.batch, "stream-"+name)
			q.Send(rp, chunk{eof: true})
		})
	}
	readR := spawnReader("R", bufsR, e.driveR, e.spec.R.Region)
	readS := spawnReader("S", bufsS, e.driveS, e.spec.S.Region)
	drop := func(c chunk) {
		if c.fromR {
			e.dropBlocks(p, bufsR, c)
		} else {
			e.dropBlocks(p, bufsS, c)
		}
	}

	keepR, keepS := e.filterR(), e.filterS()
	route := func(fromR bool, t block.Tuple) error {
		bkt := hashutil.Bucket(t.Key, pl.p)
		if bkt < pl.k {
			if fromR {
				sTabs[bkt].probeWithR(e, p, t)
				rTabs[bkt].insert(t)
			} else {
				rTabs[bkt].probeWithS(e, p, t)
				sTabs[bkt].insert(t)
			}
			return nil
		}
		if fromR {
			return spillR.add(p, t)
		}
		return spillS.add(p, t)
	}

	var pipeErr error
	for eofs := 0; eofs < 2; {
		c, _ := q.Recv(p)
		if c.eof {
			eofs++
			continue
		}
		if c.err != nil || pipeErr != nil {
			if pipeErr == nil {
				pipeErr = c.err
			}
			stop = true
			drop(c)
			continue
		}
		keep := keepS
		if c.fromR {
			keep = keepR
		}
		var routeErr error
		err := forEachTuple(c.blks, func(t block.Tuple) {
			if routeErr != nil {
				return
			}
			if keep != nil && !keep(t) {
				return
			}
			routeErr = route(c.fromR, t)
		})
		drop(c)
		if err == nil {
			err = routeErr
		}
		if err == nil {
			err = e.checkStop()
		}
		if err != nil {
			pipeErr = err
			stop = true
		}
	}
	err := p.WaitAll(readR, readS)
	sp.Close(p)
	// The stream is over: hand the resident tables back to the pool,
	// where the cleanup pass's bucket loads pick them up.
	for i := range rTabs {
		rTabs[i].release()
		sTabs[i].release()
	}
	if err != nil {
		return err
	}
	if pipeErr != nil {
		return pipeErr
	}
	e.stats.RScans++

	// Flush spill tails and hand the whole memory budget to the cleanup
	// pass.
	if err := spillR.finish(p); err != nil {
		return err
	}
	if err := spillS.finish(p); err != nil {
		return err
	}
	releaseStreamMem()
	e.markStepI(p)

	// Cleanup pass: join each spilled partition pair Grace-style, one
	// restartable unit with staged output per partition. A partition
	// with either side empty cannot produce pairs and is skipped.
	for i := pl.k; i < pl.p; i++ {
		rf, sf := rFiles[i], sFiles[i]
		if rf == nil || sf == nil {
			freeAt(i)
			continue
		}
		err := e.runUnit(p, fmt.Sprintf("sym-part@%d", i), func(up *sim.Proc) error {
			if rf.Lost() || sf.Lost() {
				// The stream that fed the spill is consumed; there is no
				// input left to re-stage from, so this is terminal.
				return fmt.Errorf("join: SYM-H spill for partition %d lost; stream already consumed", i)
			}
			return e.staged(up, func() error {
				return joinBucketPair(e, up, diskBucket{rf}, diskBucket{sf}, pl.maxLoad, pl.scanBuf)
			})
		})
		freeAt(i)
		if err != nil {
			return err
		}
		e.stats.Iterations++
	}
	return nil
}
