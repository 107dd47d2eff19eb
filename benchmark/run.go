package main

import (
	"fmt"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median. The last set-up is the one the timed rounds use.
const setupRepeats = 5

// runResult is one workload's run: its set-ups, its timed rounds and
// the metrics derived from them.
type runResult struct {
	workload  string
	setupS    []float64
	rounds    []*roundResult
	metrics   metrics
	attempted int
	failed    int
}

// setUp builds the workload, timing it. A set-up that fails is a failed
// operation: the run cannot go on.
func setUp(ctx *runCtx, wl workloadDef) (instance, float64, error) {
	_, end := ctx.tr.begin("setup "+wl.Name, "setup", 0)
	t0 := time.Now()
	inst, err := wl.make(ctx)
	end()
	return inst, time.Since(t0).Seconds(), err
}

// runRounds runs whole rounds for about the given time, at least one.
// A round is started only while half of an average round still fits,
// so the timed section ends within half a round of the target.
func runRounds(inst instance, target time.Duration, maxRounds int) []*roundResult {
	var rounds []*roundResult
	t0 := time.Now()
	for {
		rounds = append(rounds, inst.round())
		elapsed := time.Since(t0)
		avg := elapsed / time.Duration(len(rounds))
		if elapsed+avg/2 > target || (maxRounds > 0 && len(rounds) >= maxRounds) {
			return rounds
		}
	}
}

// runWorkload is the untraced run: set up setupRepeats times, then run
// timed rounds for the given time. End-to-end numbers come only from
// here.
func runWorkload(ctx *runCtx, wl workloadDef, target time.Duration, maxRounds int) (*runResult, error) {
	res := &runResult{workload: wl.Name}
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		var s float64
		var err error
		if inst, s, err = setUp(ctx, wl); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.Name, err)
		}
		res.setupS = append(res.setupS, s)
	}
	defer inst.close()
	res.rounds = runRounds(inst, target, maxRounds)
	res.finish()
	return res, nil
}

// finish derives the end-to-end metrics. Each is the median over rounds
// of the round's own value: a round is the same fixed sequence of ops
// every time, so its percentiles compare like with like, and the median
// over rounds discards the rounds a noisy neighbour disturbed.
func (r *runResult) finish() {
	var tps, ops, p50, p90, p99, fp, alloc []float64
	for _, rr := range r.rounds {
		r.attempted += len(rr.ops)
		r.failed += failedOps(rr.ops)
		var walls, firsts []float64
		var tuples int64
		done := 0
		for _, o := range rr.ops {
			if o.failed {
				continue
			}
			done++
			tuples += o.tuples
			walls = append(walls, ms(o.wall))
			if o.firstPair > 0 {
				firsts = append(firsts, ms(o.firstPair))
			}
		}
		if done == 0 || rr.wall <= 0 {
			continue
		}
		tps = append(tps, float64(tuples)/rr.wall.Seconds())
		ops = append(ops, float64(done)/rr.wall.Seconds())
		alloc = append(alloc, float64(rr.host.allocB)/1e6/float64(done))
		for _, pq := range []struct {
			dst *[]float64
			q   float64
		}{{&p50, 0.5}, {&p90, 0.9}, {&p99, 0.99}} {
			v, _ := percentile(walls, pq.q)
			*pq.dst = append(*pq.dst, v)
		}
		if len(firsts) > 0 {
			fp = append(fp, median(firsts))
		}
	}
	r.metrics = metrics{
		"setup_s":           median(r.setupS),
		"tuples_per_s":      median(tps),
		"ops_per_s":         median(ops),
		"op_ms_p50":         median(p50),
		"op_ms_p90":         median(p90),
		"op_ms_p99":         median(p99),
		"first_pair_ms_p50": median(fp),
		"alloc_mb_per_op":   median(alloc),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundWalls lists the rounds' timed walls in seconds.
func roundWalls(rounds []*roundResult) []float64 {
	out := make([]float64, len(rounds))
	for i, rr := range rounds {
		out[i] = rr.wall.Seconds()
	}
	return out
}
