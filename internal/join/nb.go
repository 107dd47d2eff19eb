package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
)

// nbSplit computes the Section-6 memory split for Nested Block
// methods: 10% of M (at least one block) scans R, the rest buffers S.
func nbSplit(m int64) (mr, ms int64) {
	mr = m / 10
	if mr < 1 {
		mr = 1
	}
	return mr, m - mr
}

// copyRToDisk is Step I of every disk–tape Nested Block method:
// relation R is copied from tape to a striped disk file, staging
// through main memory. A caller-staged copy (ExecOptions.StagedR)
// short-circuits the tape read entirely — the workload engine's
// cross-query cache hit.
func copyRToDisk(e *env, p *sim.Proc) (device.File, error) {
	if f := e.stagedR; f != nil && !f.Lost() {
		return f, nil
	}
	sp := e.span(p, "copy-R", obs.AInt("blocks", e.spec.R.Region.N))
	defer sp.Close(p)
	f, err := e.disks.Create("R", nil)
	if err != nil {
		return nil, err
	}
	e.mem.acquire(e.res.MemoryBlocks)
	defer e.mem.release(e.res.MemoryBlocks)
	keep := e.filterR()
	err = e.readTape(p, e.driveR, e.spec.R.Region, e.res.MemoryBlocks,
		func(_ int64, blks []block.Block) error {
			blks, _, err := filterRepack(blks, keep, e.spec.R.TuplesPerBlock, e.spec.R.Tag)
			if err != nil {
				return err
			}
			return f.Append(p, blks)
		})
	if err != nil {
		f.Free()
		return nil, err
	}
	e.stats.RScans++
	return f, nil
}

// ensureRFile (re)copies R to disk when it is absent or lost extents to
// a failed disk, paying a fresh tape scan of R.
func (e *env) ensureRFile(p *sim.Proc, fR *device.File) error {
	if *fR != nil && !(*fR).Lost() {
		return nil
	}
	if *fR != nil {
		e.freeR(*fR)
		*fR = nil
	}
	f, err := copyRToDisk(e, p)
	if err != nil {
		return err
	}
	*fR = f
	return nil
}

// freeR releases a method-owned R copy; a caller-owned staged file
// (ExecOptions.StagedR) is kept for future runs.
func (e *env) freeR(f device.File) {
	if f != nil && f != e.stagedR {
		f.Free()
	}
}

// scanRAndProbe performs the inner loop of a Nested Block iteration:
// scan the disk-resident R in mr-block requests and probe each R tuple
// against the in-memory table built over the current chunk of S.
func scanRAndProbe(e *env, p *sim.Proc, fR device.File, mr int64, table *hashTable) error {
	sp := e.span(p, "probe")
	defer sp.Close(p)
	e.mem.acquire(mr)
	defer e.mem.release(mr)
	for off := int64(0); off < fR.Len(); off += mr {
		n := min64(mr, fR.Len()-off)
		blks, err := e.diskRead(p, fR, off, n)
		if err != nil {
			return err
		}
		err = forEachTuple(blks, func(t block.Tuple) {
			table.probeWithR(e, p, t)
		})
		if err != nil {
			return err
		}
		if err := e.checkStop(); err != nil {
			return err
		}
	}
	e.stats.RScans++
	return nil
}

// nbJoinChunks is the sequential Step II of DT-NB and the recovery
// tail of the concurrent Nested Block variants: join ms-block chunks
// of S against disk-resident R starting at startOff. Each chunk is one
// restartable unit with staged output; ensureR re-stages R when a disk
// loss destroyed it.
func nbJoinChunks(e *env, p *sim.Proc, fR *device.File, ensureR func(*sim.Proc) error,
	mr, ms, startOff int64) error {

	s := e.spec.S.Region
	for off := startOff; off < s.N; off += ms {
		n := min64(ms, s.N-off)
		err := e.runUnit(p, fmt.Sprintf("S-chunk@%d", off), func(up *sim.Proc) error {
			sp := e.span(up, "join-chunk", obs.AInt("off", off))
			defer sp.Close(up)
			if err := ensureR(up); err != nil {
				return err
			}
			e.mem.acquire(n)
			defer e.mem.release(n)
			blks, err := e.tapeRead(up, e.driveS, s.Start+addr(off), n)
			if err != nil {
				return err
			}
			table := newHashTable(n, e.spec.S.TuplesPerBlock)
			if err := table.addBlocks(blks, e.filterS()); err != nil {
				return err
			}
			return e.staged(up, func() error {
				return scanRAndProbe(e, up, *fR, mr, table)
			})
		})
		if err != nil {
			return err
		}
		e.stats.Iterations++
	}
	return nil
}

// DTNB is Disk–Tape Nested Block Join (Section 5.1.1): sequential;
// copy R to disk, then for each memory-sized chunk of S, scan R.
type DTNB struct{}

// Name implements Method.
func (DTNB) Name() string { return "Disk-Tape Nested Block Join" }

// Symbol implements Method.
func (DTNB) Symbol() string { return "DT-NB" }

// Check implements Method: D >= |R| (Table 2).
func (DTNB) Check(spec Spec, res Resources) error {
	if res.DiskBlocks < spec.R.Region.N {
		return fmt.Errorf("%w: D=%d < |R|=%d", ErrNeedDiskForR, res.DiskBlocks, spec.R.Region.N)
	}
	if res.MemoryBlocks < 2 {
		return fmt.Errorf("%w: M=%d < 2", ErrNeedMemory, res.MemoryBlocks)
	}
	return nil
}

func (DTNB) run(e *env, p *sim.Proc) error {
	var fR device.File
	ensure := func(up *sim.Proc) error { return e.ensureRFile(up, &fR) }
	if err := e.runUnit(p, "copy-R", ensure); err != nil {
		return err
	}
	e.markStepI(p)

	mr, ms := nbSplit(e.res.MemoryBlocks)
	if err := nbJoinChunks(e, p, &fR, ensure, mr, ms, 0); err != nil {
		return err
	}
	e.freeR(fR)
	return nil
}

// CDTNBMB is Concurrent Disk–Tape Nested Block Join with memory
// buffering (Section 5.1.3): two memory buffers for S let the next
// chunk stream from tape while the previous chunk joins with R, at the
// price of halving the chunk size.
type CDTNBMB struct{}

// Name implements Method.
func (CDTNBMB) Name() string {
	return "Concurrent Disk-Tape Nested Block Join with Memory Buffering"
}

// Symbol implements Method.
func (CDTNBMB) Symbol() string { return "CDT-NB/MB" }

// Check implements Method: D >= |R|, M splits into Mr plus two chunks.
func (CDTNBMB) Check(spec Spec, res Resources) error {
	if res.DiskBlocks < spec.R.Region.N {
		return fmt.Errorf("%w: D=%d < |R|=%d", ErrNeedDiskForR, res.DiskBlocks, spec.R.Region.N)
	}
	if _, ms := nbSplit(res.MemoryBlocks); ms < 2 {
		return fmt.Errorf("%w: M=%d cannot hold two S buffers", ErrNeedMemory, res.MemoryBlocks)
	}
	return nil
}

func (CDTNBMB) run(e *env, p *sim.Proc) error {
	var fR device.File
	ensure := func(up *sim.Proc) error { return e.ensureRFile(up, &fR) }
	if err := e.runUnit(p, "copy-R", ensure); err != nil {
		return err
	}
	e.markStepI(p)

	mr, msTotal := nbSplit(e.res.MemoryBlocks)
	ms := msTotal / 2 // each of the two buffers
	s := e.spec.S.Region

	type chunk struct {
		blks []block.Block
		off  int64
		n    int64
		err  error
	}
	// Two physical buffers: the reader may fill one while the joiner
	// drains the other. Interleaving is impossible here because the
	// joiner needs its chunk intact for the whole iteration (Section
	// 5.1.3 footnote), hence the buffer-count container.
	bufs := sim.NewContainer(e.k, "nb-bufs", 2, 2)
	q := sim.NewQueue[chunk](e.k, "nb-chunks", 1)

	reader := e.k.Spawn("s-reader", func(rp *sim.Proc) {
		for off := int64(0); off < s.N && !e.abort; off += ms {
			n := min64(ms, s.N-off)
			bufs.Get(rp, 1)
			e.mem.acquire(n)
			sp := e.span(rp, "stage-S", obs.AInt("off", off))
			blks, err := e.tapeRead(rp, e.driveS, s.Start+addr(off), n)
			sp.Close(rp)
			if err != nil {
				e.mem.release(n)
				bufs.Put(rp, 1)
				q.Send(rp, chunk{off: off, err: err})
				break
			}
			q.Send(rp, chunk{blks: blks, off: off, n: n})
		}
		q.Close(rp)
	})

	var pipeErr error
	nextOff := int64(0)
	for {
		c, ok := q.Recv(p)
		if !ok {
			break
		}
		if c.err != nil || pipeErr != nil {
			if c.err != nil && pipeErr == nil {
				pipeErr = c.err
			}
			if c.blks != nil {
				e.mem.release(c.n)
				bufs.Put(p, 1)
			}
			continue
		}
		sp := e.span(p, "join-chunk", obs.AInt("off", c.off))
		table := newHashTable(c.n, e.spec.S.TuplesPerBlock)
		err := table.addBlocks(c.blks, e.filterS())
		if err == nil {
			err = e.staged(p, func() error { return scanRAndProbe(e, p, fR, mr, table) })
		}
		sp.Close(p)
		e.mem.release(c.n)
		bufs.Put(p, 1)
		if err != nil {
			pipeErr = err
			e.abort = true
			continue
		}
		e.stats.Iterations++
		nextOff = c.off + c.n
	}
	if err := p.Wait(reader); err != nil {
		return err
	}
	e.abort = false
	if pipeErr != nil {
		if e.res.Recovery.Disabled || !e.unitRecoverable(pipeErr) {
			return pipeErr
		}
		// Finish the rest of S sequentially, DT-NB style, re-staging R
		// if the fault destroyed it.
		if err := nbJoinChunks(e, p, &fR, ensure, mr, ms, nextOff); err != nil {
			return err
		}
	}
	e.freeR(fR)
	return nil
}

// CDTNBDB is Concurrent Disk–Tape Nested Block Join with disk
// buffering (Section 5.1.3): S is staged through a double-buffered
// disk area, so chunks are full memory size (twice CDT-NB/MB's) while
// tape input still overlaps the join.
type CDTNBDB struct{}

// Name implements Method.
func (CDTNBDB) Name() string {
	return "Concurrent Disk-Tape Nested Block Join with Disk Buffering"
}

// Symbol implements Method.
func (CDTNBDB) Symbol() string { return "CDT-NB/DB" }

// Check implements Method: D >= |R| + |S_i| (Table 2).
func (CDTNBDB) Check(spec Spec, res Resources) error {
	_, ms := nbSplit(res.MemoryBlocks)
	if ms < 1 {
		return fmt.Errorf("%w: M=%d", ErrNeedMemory, res.MemoryBlocks)
	}
	need := spec.R.Region.N + ms
	if res.DiskBlocks < need {
		return fmt.Errorf("%w: D=%d < |R|+|S_i|=%d", ErrNeedDiskForR, res.DiskBlocks, need)
	}
	return nil
}

func (CDTNBDB) run(e *env, p *sim.Proc) error {
	var fR device.File
	ensure := func(up *sim.Proc) error { return e.ensureRFile(up, &fR) }
	if err := e.runUnit(p, "copy-R", ensure); err != nil {
		return err
	}
	e.markStepI(p)

	mr, ms := nbSplit(e.res.MemoryBlocks)
	dbuf := e.newDoubleBuffer("s-dbuf", ms)
	chunkCap := dbuf.ChunkCapacity()
	s := e.spec.S.Region

	type chunk struct {
		iter int64
		file device.File
		off  int64
		n    int64
		err  error
	}
	q := sim.NewQueue[chunk](e.k, "db-chunks", 1)

	producer := e.k.Spawn("s-stager", func(rp *sim.Proc) {
		iter := int64(0)
		for off := int64(0); off < s.N && !e.abort; off += chunkCap {
			n := min64(chunkCap, s.N-off)
			sp := e.span(rp, "stage-S", obs.AInt("off", off))
			f, err := e.disks.Create("schunk", nil)
			if err != nil {
				sp.Close(rp)
				q.Send(rp, chunk{iter: iter, off: off, err: err})
				break
			}
			// Stage tape -> disk through a small transfer buffer
			// (ignored in M per Section 6), acquiring buffer space as
			// the previous iteration releases it.
			var acq int64
			var stageErr error
			for sub := int64(0); sub < n; sub += e.res.IOChunk {
				g := min64(e.res.IOChunk, n-sub)
				dbuf.Acquire(rp, iter, g)
				acq += g
				blks, err := e.tapeRead(rp, e.driveS, s.Start+addr(off+sub), g)
				if err == nil {
					err = f.Append(rp, blks)
				}
				if err != nil {
					stageErr = err
					break
				}
			}
			sp.Close(rp)
			if stageErr != nil {
				dbuf.Release(rp, iter, acq)
				f.Free()
				q.Send(rp, chunk{iter: iter, off: off, err: stageErr})
				break
			}
			q.Send(rp, chunk{iter: iter, file: f, off: off, n: n})
			iter++
		}
		q.Close(rp)
	})

	var pipeErr error
	nextOff := int64(0)
	for {
		c, ok := q.Recv(p)
		if !ok {
			break
		}
		if c.err != nil || pipeErr != nil {
			if c.err != nil && pipeErr == nil {
				pipeErr = c.err
			}
			if c.file != nil {
				dbuf.Release(p, c.iter, c.n)
				c.file.Free()
			}
			continue
		}
		// Read the staged chunk into memory, releasing buffer space
		// as it is consumed so the producer can refill it (the
		// interleaved scheme of Section 4).
		sp := e.span(p, "join-chunk", obs.AInt("off", c.off))
		err := func() error {
			e.mem.acquire(c.n)
			defer e.mem.release(c.n)
			table := newHashTable(c.n, e.spec.S.TuplesPerBlock)
			keepS := e.filterS()
			for sub := int64(0); sub < c.n; sub += e.res.IOChunk {
				g := min64(e.res.IOChunk, c.n-sub)
				blks, err := e.diskRead(p, c.file, sub, g)
				if err != nil {
					dbuf.Release(p, c.iter, c.n-sub)
					c.file.Free()
					return err
				}
				if err := table.addBlocks(blks, keepS); err != nil {
					dbuf.Release(p, c.iter, c.n-sub)
					c.file.Free()
					return err
				}
				dbuf.Release(p, c.iter, g)
			}
			c.file.Free()
			return e.staged(p, func() error { return scanRAndProbe(e, p, fR, mr, table) })
		}()
		sp.Close(p)
		if err != nil {
			pipeErr = err
			e.abort = true
			continue
		}
		e.stats.Iterations++
		nextOff = c.off + c.n
	}
	if err := p.Wait(producer); err != nil {
		return err
	}
	e.abort = false
	if pipeErr != nil {
		if e.res.Recovery.Disabled || !e.unitRecoverable(pipeErr) {
			return pipeErr
		}
		// Finish the rest of S sequentially with direct tape reads,
		// memory-sized chunks at a time.
		if err := nbJoinChunks(e, p, &fR, ensure, mr, ms, nextOff); err != nil {
			return err
		}
	}
	e.freeR(fR)
	return nil
}
