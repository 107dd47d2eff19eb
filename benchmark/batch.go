package main

import (
	"fmt"
	"time"

	tapejoin "repro"
)

// ---- batch-sched -------------------------------------------------------

const batSRels, batRRels = 3, 4

type batchInst struct {
	ctx       *runCtx
	sys       *tapejoin.System
	queries   []tapejoin.BatchQuery
	keys      []string // queries[i]'s "R|S"
	refs      map[string]joinRef
	tuples    int64 // input tuples of one batch
	nextRound int
}

func newBatch(ctx *runCtx) (instance, error) {
	sz := ctx.sz
	_, end := ctx.tr.begin("NewSystem", "setup", 0)
	sys, err := tapejoin.NewSystem(tapejoin.Config{MemoryMB: sz.batMemMB, DiskMB: sz.batDiskMB, Observe: ctx.observe})
	end()
	if err != nil {
		return nil, err
	}
	cat, refs, err := buildCatalog(ctx, sys, batSRels, batRRels, sz.batSMB, sz.batRMB, sz.batTPB, 0)
	if err != nil {
		sys.Close()
		return nil, err
	}
	w := &batchInst{ctx: ctx, sys: sys, refs: refs}
	// Submission order alternates cartridges on both sides: S1 S2 S3 ...
	// and R1 R3 R2 R4 (R1, R2 share a cartridge, as do R3, R4), so fifo
	// pays a mount on almost every query.
	rOrder := []string{"R1", "R3", "R2", "R4"}
	for i := 0; i < sz.batQueries; i++ {
		rn, sn := rOrder[i%batRRels], fmt.Sprintf("S%d", i%batSRels+1)
		w.queries = append(w.queries, tapejoin.BatchQuery{ID: fmt.Sprintf("q%d", i), R: cat[rn], S: cat[sn]})
		w.keys = append(w.keys, rn+"|"+sn)
		w.tuples += cat[rn].Tuples() + cat[sn].Tuples()
	}
	if s, _ := w.op("mount-aware", "setup"); s.failed {
		w.close()
		return nil, fmt.Errorf("warm-up batch failed")
	}
	return w, nil
}

// op runs and checks one batch. RunBatch returns every query's output
// together, so the first pair arrives with the report.
func (w *batchInst) op(policy, opID string) (opSample, *tapejoin.BatchReport) {
	var hp hostProbe
	hp.start()
	_, end := w.ctx.tr.begin("RunBatch "+policy, opID, 0)
	t0 := time.Now()
	rep, err := w.sys.RunBatch(w.queries, tapejoin.BatchOptions{Policy: tapejoin.BatchPolicy(policy), CacheMB: w.ctx.sz.batCacheMB})
	wall := time.Since(t0)
	end()
	s := opSample{kind: policy, wall: wall, firstPair: wall, tuples: w.tuples, host: hp.stop()}
	fail := func(format string, args ...any) {
		s.failed = true
		w.ctx.fails.addf("batch %s %s: %s", opID, policy, fmt.Sprintf(format, args...))
	}
	if err != nil {
		fail("%v", err)
		return s, nil
	}
	if len(rep.Queries) != len(w.queries) {
		fail("%d query results for %d queries", len(rep.Queries), len(w.queries))
		return s, rep
	}
	for i, q := range rep.Queries {
		ref := w.refs[w.keys[i]]
		switch {
		case q.Failed:
			fail("%s failed: %s", q.ID, q.Reason)
		case q.Matches != ref.matches:
			fail("%s: matches %d, want %d", q.ID, q.Matches, ref.matches)
		case q.OutputHash != ref.hash:
			fail("%s: output hash %016x, want %016x (solo CDT-GH)", q.ID, q.OutputHash, ref.hash)
		}
	}
	if rep.DiskPeakMB > w.ctx.sz.batDiskMB {
		fail("DiskPeakMB %.3f > D = %v", rep.DiskPeakMB, w.ctx.sz.batDiskMB)
	}
	return s, rep
}

func (w *batchInst) round() *roundResult {
	w.nextRound++
	rr := &roundResult{counts: map[string]float64{}}
	var hits, lookups float64
	for c := 0; c < w.ctx.sz.batCyclesPerRound; c++ {
		for i, p := range batchPolicies {
			s, rep := w.op(p, fmt.Sprintf("r%d.%d.%d", w.nextRound, c, i))
			rr.host.add(s.host)
			rr.ops = append(rr.ops, s)
			rr.wall += s.wall
			if rep == nil {
				continue
			}
			cn := rr.counts
			cn["virtual_s"] += rep.Makespan.Seconds()
			cn["tape.read_mb"] += rep.TapeReadMB
			cn["tape.written_mb"] += rep.TapeWrittenMB
			cn["disk.peak_mb"] = max(cn["disk.peak_mb"], rep.DiskPeakMB)
			// Every cycle repeats the same three batches on the same
			// cartridges, so the per-policy counts are those of any cycle.
			cn["workload.makespan_s."+p] = rep.Makespan.Seconds()
			cn["workload.mounts."+p] = float64(rep.Mounts)
			cn["workload.shared_passes"] += float64(rep.SharedPasses)
			hits += float64(rep.CacheHits)
			lookups += float64(rep.CacheHits + rep.CacheMisses)
		}
	}
	if lookups > 0 {
		rr.counts["workload.cache_hit_ratio"] = hits / lookups
	}
	return rr
}

func (w *batchInst) close() { w.sys.Close() }
