package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"

	tapejoin "repro"
)

// The traced run: a few untraced reference rounds, the same rounds
// again with Config.Observe on and a benchmark-side span around every
// call the driver makes, then the layer ladder. End-to-end numbers never
// come from here.

const (
	tracedRounds    = 3
	referenceRounds = 2
)

// shareRow is one line of the share table: a layer's unit cost from the
// ladder times the work one op gives it.
type shareRow struct {
	label                 string
	nsPerUnit, unitsPerOp float64
}

type traceResult struct {
	workload     string
	tracedRounds int
	metrics      metrics
	attempted    int
	failed       int
	shares       []shareRow
	opWallNS     float64 // mean wall of one op of the traced rounds
	spansPath    string
	notes        []string
}

// fixedRounds sets the workload up once and runs exactly n rounds.
func fixedRounds(ctx *runCtx, wl workloadDef, n int) ([]*roundResult, error) {
	inst, _, err := setUp(ctx, wl)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.Name, err)
	}
	defer inst.close()
	rounds := make([]*roundResult, n)
	for i := range rounds {
		rounds[i] = inst.round()
	}
	return rounds, nil
}

func traceWorkload(newCtx func() *runCtx, wl workloadDef, smoke bool) (*traceResult, error) {
	nRef, nTraced := referenceRounds, tracedRounds
	if smoke {
		nRef, nTraced = 1, 1
	}
	t := &traceResult{workload: wl.Name, tracedRounds: nTraced, metrics: metrics{}}

	uctx := newCtx()
	ref, err := fixedRounds(uctx, wl, nRef)
	uctx.fails.report()
	if err != nil {
		return nil, err
	}

	ctx := newCtx()
	ctx.observe, ctx.tr = true, newTracer()
	defer ctx.fails.report()
	rounds, err := fixedRounds(ctx, wl, nTraced)
	if err != nil {
		return nil, err
	}
	for _, rr := range append(append([]*roundResult{}, ref...), rounds...) {
		t.attempted += len(rr.ops)
	}

	// Simulated quantities must not notice tracing, and must repeat from
	// round to round: every round starts from the same cartridges.
	base := rounds[0].counts
	for i, rr := range append(append([]*roundResult{}, ref...), rounds[1:]...) {
		for _, name := range sortedKeys(base) {
			if rr.counts[name] != base[name] {
				which := fmt.Sprintf("untraced round %d", i+1)
				if i >= len(ref) {
					which = fmt.Sprintf("traced round %d", i-len(ref)+2)
				}
				ctx.fails.addf("%s: %s = %v in %s, %v in traced round 1: simulated results must not depend on tracing or on the round",
					wl.Name, name, rr.counts[name], which, base[name])
			}
		}
	}

	lm, err := runLadder(ctx, wl.Name)
	if err != nil {
		return nil, fmt.Errorf("%s: layer ladder: %w", wl.Name, err)
	}
	for k, v := range lm {
		t.metrics[k] = v
	}
	t.fromRounds(rounds)
	t.metrics["obs.trace_overhead_ratio"] = median(roundWalls(rounds)) / median(roundWalls(ref))
	t.costResiduals(ctx)
	t.shareTable(ctx, rounds)

	// Only published names leave this function.
	published := metrics{}
	for _, d := range perLayer {
		if v, ok := t.metrics[d.Name]; ok {
			published[d.Name] = v
		}
	}
	t.metrics = published

	t.spansPath = filepath.Join(ctx.scratch, "spans-"+wl.Name+".jsonl")
	if err := ctx.tr.writeJSONL(t.spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	t.failed = uctx.fails.n + ctx.fails.n
	return t, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fromRounds derives the per-layer metrics the traced rounds give
// directly: simulated counts, per-method and per-policy op times, the
// service's own account of each query, and what the Go runtime did.
func (t *traceResult) fromRounds(rounds []*roundResult) {
	m := t.metrics
	for name, v := range rounds[0].counts {
		m[name] = v
	}
	wallByKind := map[string][]float64{}
	allocByKind := map[string][]float64{}
	var host hostDelta
	var wire, wait, run, limit []float64
	ops := 0
	var wallNS float64
	for _, rr := range rounds {
		host.add(rr.host)
		for _, o := range rr.ops {
			if o.failed {
				continue
			}
			ops++
			wallNS += float64(o.wall)
			wallByKind[o.kind] = append(wallByKind[o.kind], ms(o.wall))
			if o.tuples > 0 {
				allocByKind[o.kind] = append(allocByKind[o.kind], float64(o.host.allocB)/float64(o.tuples))
			}
			if o.kind == "stop_after" {
				limit = append(limit, ms(o.wall))
			}
		}
		for _, s := range rr.svc {
			wire, wait, run = append(wire, s.wireMS), append(wait, s.waitMS), append(run, s.runMS)
		}
		m["service.pairs_streamed"] += float64(rr.pairsStreamed)
		m["service.pairs_dropped"] += float64(rr.pairsDropped)
		m["service.rejected"] += float64(rr.rejected)
		m["service.mounts"] += float64(rr.mounts)
	}
	if ops == 0 {
		return
	}
	t.opWallNS = wallNS / float64(ops)
	for _, meth := range soloMethods {
		if w := wallByKind[meth]; len(w) > 0 {
			m[metricName("join.", meth, ".op_ms_p50")] = median(w)
			m[metricName("join.", meth, ".alloc_b_per_tuple")] = median(allocByKind[meth])
		}
	}
	for _, p := range batchPolicies {
		if w := wallByKind[p]; len(w) > 0 {
			m["workload.batch_ms_p50."+p] = median(w)
		}
	}
	if len(wire) > 0 {
		m["service.wire_overhead_ms_p50"] = median(wire)
		m["service.queue_wait_ms_p50"] = median(wait)
		m["service.run_ms_p50"] = median(run)
		m["service.limit_ms_p50"] = median(limit)
	} else {
		for _, name := range []string{"service.pairs_streamed", "service.pairs_dropped", "service.rejected", "service.mounts"} {
			delete(m, name)
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["host.heap_peak_mb"] = float64(host.heapInuse) / 1e6
	m["host.gc_pause_ms"] = float64(host.pauseNS) / 1e6 / float64(ops)
	m["host.gc_cpu_fraction"] = mem.GCCPUFraction
	m["host.mallocs_per_op"] = float64(host.mallocs) / float64(ops)
}

// costResiduals compares the simulated response of each method with the
// cost model's estimate, on the workload that has both: solo joins on
// the sim backend.
func (t *traceResult) costResiduals(ctx *runCtx) {
	in := ctx.ladderInputs(t.workload)
	if !in.solo || in.backend != "sim" {
		return
	}
	sys, err := tapejoin.NewSystem(tapejoin.Config{MemoryMB: in.memMB, DiskMB: in.diskMB})
	if err != nil {
		return
	}
	defer sys.Close()
	for _, meth := range append(append([]string{}, soloMethods...), tracedOnlyMethod) {
		est := sys.Estimate(tapejoin.Method(meth), in.rMB, in.sMB)
		sim, ok := t.metrics[metricName("virtual.", meth, "")]
		if ok && est.Feasible && est.Response > 0 {
			t.metrics[metricName("cost.residual_ratio.", meth, "")] = sim / est.Response.Seconds()
		}
	}
}

// shareTable prices one op of the traced rounds in each layer's unit
// cost. It is an estimate made from outside: the work counts are what
// the op's own statistics imply, not what the layer counted.
func (t *traceResult) shareTable(ctx *runCtx, rounds []*roundResult) {
	m := t.metrics
	in := ctx.ladderInputs(t.workload)
	ops := float64(len(rounds[0].ops))
	if ops == 0 {
		return
	}
	c := rounds[0].counts
	blocksPerMB := float64(tapejoin.BlocksPerMB)
	readBlocks := (c["tape.read_mb"] + c["disk.read_mb"]) * blocksPerMB / ops
	writtenBlocks := (c["tape.written_mb"] + c["disk.written_mb"]) * blocksPerMB / ops
	moved := readBlocks + writtenBlocks
	tpb := float64(in.tpb)
	add := func(label string, ns, units float64) {
		if ns > 0 && units > 0 {
			t.shares = append(t.shares, shareRow{label, ns, units})
		}
	}
	if t.workload == "service-mix" {
		add("service: wire + HTTP overhead per query", m["service.wire_overhead_ms_p50"]*1e6, 1)
		add("service: queue wait per query", m["service.queue_wait_ms_p50"]*1e6, 1)
		add("service: decode request", m["service.decode_request_us"]*1e3, 1)
		add("cost: advise per query", m["cost.advise_us"]*1e3, 1)
		t.notes = append(t.notes, "service-mix: the remainder is the engine's run time (service.run_ms_p50), which the solo ladders break down")
		return
	}
	add("block: decode tuples read", m["block.decode_ns_per_tuple"], readBlocks*tpb)
	add("block: encode tuples written (upper bound)", m["block.encode_ns_per_tuple"], writtenBlocks*tpb)
	add("hashutil: bucket tuples written (upper bound)", m["hashutil.bucket_ns_per_key"], writtenBlocks*tpb)
	if in.solo {
		pairs := float64(in.rMB*in.sMB) * blocksPerMB * blocksPerMB * tpb * tpb / float64(in.keys)
		add("join: emit funnel per pair", m["join.marginal_ns_per_pair"], pairs)
	}
	add("sim: kernel switch per 32-block request", m["sim.hold_switch_ns"], moved/32)
	if in.backend == "file" {
		add("ioengine: submit-complete per request", m["ioengine.submit_complete_ns"], moved/32)
		bytesPerBlock := tpb*18 + 12
		if v := m["filedev.read_mb_per_s"]; v > 0 {
			add("filedev: framed read per block", bytesPerBlock/v*1e3, readBlocks)
		}
		if v := m["filedev.append_mb_per_s"]; v > 0 {
			add("filedev: framed write per block", bytesPerBlock/v*1e3, writtenBlocks)
		}
	} else if v := m["simdev.drive_read_blocks_per_s"]; v > 0 {
		add("simdev: device model per block", 1e9/v, moved)
	}
	if t.workload == "batch-sched" {
		add("cost: advise per query", m["cost.advise_us"]*1e3, float64(ctx.sz.batQueries))
		t.notes = append(t.notes, "batch-sched: BatchReport has no disk traffic, so blocks moved counts tape blocks only")
	}
}
