package join

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sim"
)

// SharedQuery is one rider of a shared S-scan: a query whose R side is
// already disk-resident and that piggybacks on a single tape pass over
// the common S relation. The scan fans every streamed S chunk out to
// each rider's probe operator.
type SharedQuery struct {
	// R is the rider's small relation (used for sizing and stats).
	R *relation.Relation
	// StagedR is R's disk-resident copy, staged via Session.StageR or
	// the workload cache. Required; ownership stays with the caller.
	StagedR device.File
	// FilterS, when non-nil, drops S tuples from this rider's output
	// only — the other riders still see them.
	FilterS func(block.Tuple) bool
	// Sink receives the rider's output pairs; nil counts matches only.
	// Pairs are held until the pass has succeeded: a failed pass
	// reaches no sink, so its riders can be re-served without doubles.
	Sink Sink
	// MrBlocks is the rider's R-scan buffer (admission control's
	// per-query memory partition). Minimum 1.
	MrBlocks int64
}

// SharedResult reports one shared S-scan pass.
type SharedResult struct {
	// Stats aggregates the pass across all riders: Response is the
	// pass's own duration, tape/disk counters are per-pass deltas,
	// Iterations counts S chunks.
	Stats Stats
	// Matches holds each rider's output cardinality, index-aligned
	// with the queries argument.
	Matches []int64
}

// ExecShared runs one shared pass over bigS for all riders: S streams
// from tape once in double-buffered chunks (CDT-NB/MB style, one
// reader proc ahead of the join); for each chunk one shared hash
// table is built, and every rider's disk-resident R scans against it
// in turn. Compared to running the riders back to back, S's tape cost
// is paid once instead of len(queries) times. Each rider's output is
// held in a staging log and reaches its Sink only when the pass has
// succeeded.
//
// memBlocks is the memory budget for the pass (0 = the session's M):
// each rider reserves MrBlocks for its R scan and the remainder splits
// into two S chunk buffers.
func (s *Session) ExecShared(p *sim.Proc, bigS *relation.Relation, queries []SharedQuery, memBlocks int64) (*SharedResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("join: shared scan with no riders")
	}
	if memBlocks <= 0 {
		memBlocks = s.res.MemoryBlocks
	}
	var mrTotal int64
	for i := range queries {
		q := &queries[i]
		if q.StagedR == nil || q.StagedR.Lost() {
			return nil, fmt.Errorf("join: shared-scan rider %d has no staged R", i)
		}
		if q.Sink == nil {
			q.Sink = &CountSink{}
		}
		if q.MrBlocks < 1 {
			q.MrBlocks = 1
		}
		mrTotal += q.MrBlocks
	}
	// Two S buffers share what the R scans leave: the reader fills one
	// chunk while the riders drain the other.
	ms := (memBlocks - mrTotal) / 2
	if ms < 1 {
		return nil, fmt.Errorf("%w: M=%d cannot buffer S for %d shared riders",
			ErrNeedMemory, memBlocks, len(queries))
	}

	if s.driveS.Media() != bigS.Media {
		s.driveS.Load(bigS.Media)
	}
	snap := s.snapshot()
	s.disks.ResetHighWater()

	res := s.res
	res.MemoryBlocks = memBlocks
	// The env's spec is only a carrier here: shared scans read S via
	// the region below and each rider's R from its staged file.
	e := s.newEnv(p.Now(), Spec{R: queries[0].R, S: bigS}, res, &CountSink{})
	sp := e.span(p, "shared-scan",
		obs.AInt("riders", int64(len(queries))), obs.AInt("s_blocks", bigS.Region.N))

	held := make([]stageLog, len(queries))
	bufs := sim.NewContainer(e.k, "shared-bufs", 2, 2)
	// No sequential tail: a failed pass is re-served by the caller
	// (the workload engine demotes its riders), never finished here.
	err := e.pipeline(p, "shared-chunks", "shared-s-reader",
		func(hp *sim.Proc, q *sim.Queue[chunk], stop *bool) {
			e.readAhead(hp, q, stop, bufs, e.driveS, bigS.Region, ms, "stage-S")
		},
		func(c chunk) error {
			defer e.dropBlocks(p, bufs, c)
			if err := sharedJoinChunk(e, p, c.blks, c.off, queries, held); err != nil {
				return err
			}
			e.stats.Iterations++
			return nil
		},
		func(c chunk) { e.dropBlocks(p, bufs, c) }, nil)
	sp.Close(p)
	if err != nil {
		return nil, fmt.Errorf("shared-scan: %w", err)
	}

	s.finishStats(e, p.Now(), snap)
	out := &SharedResult{Stats: *e.stats}
	out.Stats.OutputTuples = 0
	for i := range queries {
		n := held[i].flush(p, queries[i].Sink.Emit)
		out.Matches = append(out.Matches, n)
		out.Stats.OutputTuples += n
	}
	return out, nil
}

// sharedJoinChunk builds one hash table over an S chunk and probes
// every rider's disk-resident R against it. Riders run sequentially —
// the disk array is the shared resource and its contention is what the
// simulation accounts — with per-rider S filters applied at emission,
// into the rider's held log. A rider's sink sees nothing before the
// pass ends, so no sink-driven stop can cut a pass short.
func sharedJoinChunk(e *env, p *sim.Proc, blks []block.Block, off int64, queries []SharedQuery, held []stageLog) error {
	if err := e.checkStop(); err != nil {
		return err
	}
	sp := e.span(p, "join-chunk", obs.AInt("off", off))
	defer sp.Close(p)
	table := newHashTable(int64(len(blks)), e.spec.S.TuplesPerBlock)
	defer table.release()
	if err := table.addBlocks(blks, nil); err != nil {
		return err
	}
	for i := range queries {
		q := &queries[i]
		log := &held[i]
		psp := e.span(p, "probe", obs.AInt("rider", int64(i)))
		e.mem.acquire(q.MrBlocks)
		err := e.scan(p, diskBucket{q.StagedR}, q.MrBlocks, func(rBlks []block.Block, _ bool) error {
			err := forEachTuple(rBlks, func(rt block.Tuple) {
				for j := table.first(rt.Key); j != 0; j = table.next[j] {
					if st := table.tuples[j]; q.FilterS == nil || q.FilterS(st) {
						log.emit(rt, st)
					}
				}
			})
			if err == nil {
				// The held log copied every pair it took.
				q.StagedR.Recycle(rBlks)
			}
			return err
		})
		e.mem.release(q.MrBlocks)
		psp.Close(p)
		if err != nil {
			return err
		}
	}
	return nil
}
