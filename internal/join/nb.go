package join

import (
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
