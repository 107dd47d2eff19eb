package join

import (
	"fmt"
	"time"

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
	err = e.scan(p, tapeBucket{drive: e.driveR, region: e.spec.R.Region}, e.res.MemoryBlocks,
		func(blks []block.Block, _ bool) error {
			blks, err := filterRepack(blks, keep, e.spec.R.TuplesPerBlock, e.spec.R.Tag)
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
	err := e.scan(p, diskBucket{fR}, mr, func(blks []block.Block, _ bool) error {
		err := forEachTuple(blks, func(t block.Tuple) {
			table.probeWithR(e, p, t)
		})
		if err != nil {
			return err
		}
		return e.checkStop()
	})
	if err != nil {
		return err
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
		n := min(ms, s.N-off)
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
			defer table.release()
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

// footprint implements Method: M holds one R block and one S block,
// D holds R (Table 2).
func (DTNB) footprint(r, _ int64, res Resources) (Need, error) {
	return Need{M: 2, D: r, dWhy: "|R|", forR: true}, memFloor(res, 2)
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

// footprint implements Method: M splits into Mr plus two S buffers
// (nbSplit's ms >= 2 from M = 3), D holds R (Table 2).
func (CDTNBMB) footprint(r, _ int64, res Resources) (Need, error) {
	return Need{M: 3, D: r, dWhy: "|R|", forR: true}, memFloor(res, 3)
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

	// Two physical buffers: the reader may fill one while the joiner
	// drains the other. Interleaving is impossible here because the
	// joiner needs its chunk intact for the whole iteration (Section
	// 5.1.3 footnote), hence the buffer-count container.
	bufs := sim.NewContainer(e.k, "nb-bufs", 2, 2)
	err := e.pipeline(p, "nb-chunks", "s-reader",
		func(hp *sim.Proc, q *sim.Queue[chunk], stop *bool) {
			e.readAhead(hp, q, stop, bufs, e.driveS, e.spec.S.Region, ms, "stage-S")
		},
		func(c chunk) error {
			defer e.dropBlocks(p, bufs, c)
			sp := e.span(p, "join-chunk", obs.AInt("off", c.off))
			defer sp.Close(p)
			table := newHashTable(c.n, e.spec.S.TuplesPerBlock)
			defer table.release()
			if err := table.addBlocks(c.blks, e.filterS()); err != nil {
				return err
			}
			if err := e.staged(p, func() error { return scanRAndProbe(e, p, fR, mr, table) }); err != nil {
				return err
			}
			e.stats.Iterations++
			return nil
		},
		func(c chunk) { e.dropBlocks(p, bufs, c) },
		// Finish the rest of S sequentially, DT-NB style, re-staging R
		// if the fault destroyed it.
		func(next int64) error { return nbJoinChunks(e, p, &fR, ensure, mr, ms, next) })
	if err != nil {
		return err
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

// footprint implements Method: D holds R plus the S staging area
// (Table 2's |R| + |S_i|, as dbStaging measures it). Each buffer half
// of the split discipline needs a block.
func (CDTNBDB) footprint(r, s int64, res Resources) (Need, error) {
	floor := int64(2)
	if res.Discipline == SplitHalves {
		floor = 3
	}
	if err := memFloor(res, floor); err != nil {
		return Need{}, err
	}
	return Need{M: floor, D: r + dbStaging(res, s), dWhy: "|R|+staged S", forR: true}, nil
}

// dbStaging returns the peak disk space CDT-NB/DB's double-buffered S
// staging holds for an s-block S on res. The joiner reads a chunk back
// in IOChunk pieces, releasing buffer space piece by piece, but frees
// the chunk's file only after its last piece, while the stager refills
// the released space from tape. So the peak is the chunks the buffer
// holds (one, or two under SplitHalves) plus what the stager appends
// to the next chunk while the joiner reads one back.
//
// That race is replayed with the devices' service times: a disk
// request costs DiskOverhead plus its largest per-drive share at
// DiskRate/NumDisks, each drive serving requests in issue order, and a
// tape read costs its blocks at the effective tape rate. Tape
// stop/start penalties only slow the stager, so on such a drive the
// replay is an upper bound; on the file backend it is an estimate.
func dbStaging(res Resources, s int64) int64 {
	_, k := nbSplit(res.MemoryBlocks)
	held := int64(1)
	if res.Discipline == SplitHalves {
		k, held = k/2, 2
	}
	g, nd := res.IOChunk, int64(res.NumDisks)
	xfer := func(n int64, rate float64) sim.Time {
		return sim.Time(float64(n) * block.VirtualSize / rate * float64(time.Second))
	}
	// staged replays the joiner reading a k-block chunk back against
	// the stager filling a next-block chunk and returns the blocks the
	// stager has appended when the joiner frees its chunk.
	staged := func(next int64) int64 {
		free := make([]sim.Time, nd) // when each drive's queue drains
		request := func(at sim.Time, off, n int64) (done sim.Time) {
			for d := int64(0); d < nd; d++ {
				share := n / nd // striping puts the remainder after off's drive
				if (d-off%nd+nd)%nd < n%nd {
					share++
				}
				if share > 0 {
					free[d] = max(at, free[d]) + sim.Time(res.DiskOverhead) + xfer(share, res.DiskRate/float64(nd))
					done = max(done, free[d])
				}
			}
			return done
		}
		var released []sim.Time  // when the joiner released each piece
		var read, appended int64 // blocks read back, blocks appended
		stagerFree, tapeDone := sim.Time(0), sim.Time(-1)
		for {
			now := sim.Time(0) // the joiner's last release: its next read
			if len(released) > 0 {
				now = released[len(released)-1]
			}
			n := min(g, next-appended)
			if tapeDone < 0 && n > 0 && read >= appended+n {
				// The stager takes the released space and reads tape.
				tapeDone = max(stagerFree, released[(appended+n-1)/g]) + xfer(n, res.Tape.EffectiveRate())
			}
			switch {
			case tapeDone >= 0 && tapeDone <= now:
				// The append charges its space before it transfers.
				stagerFree = request(tapeDone, appended, n)
				appended, tapeDone = appended+n, -1
			case read == k:
				return appended
			default:
				piece := min(g, k-read)
				released = append(released, request(now, read, piece))
				read += piece
			}
		}
	}
	chunks := (s + k - 1) / k
	peak := min(s, held*k)
	if chunks > held {
		peak = max(peak, held*k+staged(s-(chunks-1)*k))
	}
	if chunks > held+1 {
		peak = max(peak, held*k+staged(k))
	}
	return peak
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

	stage := func(hp *sim.Proc, q *sim.Queue[chunk], stop *bool) {
		for off, iter := int64(0), int64(0); off < s.N && !*stop; off, iter = off+chunkCap, iter+1 {
			n := min(chunkCap, s.N-off)
			sp := e.span(hp, "stage-S", obs.AInt("off", off))
			f, err := e.disks.Create("schunk", nil)
			if err != nil {
				sp.Close(hp)
				q.Send(hp, chunk{iter: iter, off: off, err: err})
				return
			}
			// Stage tape -> disk through a small transfer buffer
			// (ignored in M per Section 6), acquiring buffer space as
			// the previous iteration releases it.
			var acq int64
			for sub := int64(0); sub < n && err == nil; sub += e.res.IOChunk {
				g := min(e.res.IOChunk, n-sub)
				dbuf.Acquire(hp, iter, g)
				acq += g
				var blks []block.Block
				if blks, err = e.tapeRead(hp, e.driveS, s.Start+addr(off+sub), g); err == nil {
					err = f.Append(hp, blks)
				}
			}
			sp.Close(hp)
			if err != nil {
				dbuf.Release(hp, iter, acq)
				f.Free()
				q.Send(hp, chunk{iter: iter, off: off, err: err})
				return
			}
			q.Send(hp, chunk{iter: iter, file: f, off: off, n: n})
		}
	}
	drop := func(c chunk) {
		if c.file != nil {
			dbuf.Release(p, c.iter, c.n)
			c.file.Free()
		}
	}
	// Read the staged chunk into memory, releasing buffer space as it is
	// consumed so the producer can refill it (the interleaved scheme of
	// Section 4).
	join := func(c chunk) error {
		sp := e.span(p, "join-chunk", obs.AInt("off", c.off))
		defer sp.Close(p)
		e.mem.acquire(c.n)
		defer e.mem.release(c.n)
		table := newHashTable(c.n, e.spec.S.TuplesPerBlock)
		defer table.release()
		keepS := e.filterS()
		for sub := int64(0); sub < c.n; sub += e.res.IOChunk {
			g := min(e.res.IOChunk, c.n-sub)
			blks, err := e.readSrc(p, diskBucket{c.file}, sub, g)
			if err == nil {
				err = table.addBlocks(blks, keepS)
			}
			if err != nil {
				dbuf.Release(p, c.iter, c.n-sub)
				c.file.Free()
				return err
			}
			dbuf.Release(p, c.iter, g)
		}
		c.file.Free()
		if err := e.staged(p, func() error { return scanRAndProbe(e, p, fR, mr, table) }); err != nil {
			return err
		}
		e.stats.Iterations++
		return nil
	}
	// Finish the rest of S sequentially with direct tape reads,
	// memory-sized chunks at a time.
	err := e.pipeline(p, "db-chunks", "s-stager", stage, join, drop,
		func(next int64) error { return nbJoinChunks(e, p, &fR, ensure, mr, ms, next) })
	if err != nil {
		return err
	}
	e.freeR(fR)
	return nil
}
