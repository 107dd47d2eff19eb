package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	tapejoin "repro"
)

// sizes fixes every workload's geometry. They are constants of the
// benchmark, not flags: a number recorded against one geometry means
// nothing against another. README.md says why each value was chosen.
type sizes struct {
	// Solo workloads: one System.JoinWith per op.
	soloRMB, soloSMB, soloTapeMB int64
	soloMemMB, soloDiskMB        float64
	matchTPB, scanTPB            int    // tuples per 64 KB block: solo-sim-match, solo-file-scan
	matchKeys, scanKeys          uint64 // key spaces: ~0.52 M pairs/op vs ~200 pairs/op

	// service-mix: the resident daemon over loopback HTTP.
	svcRMB, svcSMB                  int64
	svcMemMB, svcDiskMB, svcCacheMB float64
	svcTPB                          int
	svcKeys                         uint64
	svcRoundQueries, svcWarmQueries int

	// batch-sched: System.RunBatch at paper scale, sparse blocks.
	batRMB, batSMB                  int64
	batMemMB, batDiskMB, batCacheMB float64
	batTPB                          int
	batQueries, batCyclesPerRound   int

	// ladderBudget bounds each layer microbenchmark of the traced run.
	ladderBudget time.Duration
}

var fullSizes = sizes{
	soloRMB: 4, soloSMB: 16, soloTapeMB: 64, soloMemMB: 1, soloDiskMB: 25,
	matchTPB: 2048, scanTPB: 3584, matchKeys: 1 << 17, scanKeys: 1 << 30,

	svcRMB: 1, svcSMB: 6, svcMemMB: 8, svcDiskMB: 64, svcCacheMB: 4,
	svcTPB: 512, svcKeys: 1 << 16, svcRoundQueries: 252, svcWarmQueries: 48,

	batRMB: 50, batSMB: 200, batMemMB: 16, batDiskMB: 400, batCacheMB: 32,
	batTPB: 4, batQueries: 24, batCyclesPerRound: 3,

	ladderBudget: 150 * time.Millisecond,
}

// smokeSizes keeps every code path and shrinks every relation, so the
// package test can drive all four workloads in seconds.
var smokeSizes = sizes{
	soloRMB: 1, soloSMB: 2, soloTapeMB: 16, soloMemMB: 0.5, soloDiskMB: 8,
	matchTPB: 64, scanTPB: 64, matchKeys: 1 << 10, scanKeys: 1 << 30,

	svcRMB: 1, svcSMB: 2, svcMemMB: 8, svcDiskMB: 64, svcCacheMB: 4,
	svcTPB: 16, svcKeys: 1 << 8, svcRoundQueries: 36, svcWarmQueries: 4,

	batRMB: 2, batSMB: 8, batMemMB: 2, batDiskMB: 32, batCacheMB: 4,
	batTPB: 4, batQueries: 12, batCyclesPerRound: 1,

	ladderBudget: 5 * time.Millisecond,
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	make func(ctx *runCtx) (instance, error)
}

var workloads = []workloadDef{
	{"solo-sim-match", "sim backend, dense blocks, ~0.52M pairs/op: no OS I/O, so block codec, hash build/probe and the emit funnel dominate",
		func(ctx *runCtx) (instance, error) { return newSolo(ctx, "sim") }},
	{"solo-file-scan", "file backend, same methods, ~200 pairs/op: framed CRC'd reads/writes, ioengine and partitioning dominate; emission is idle",
		func(ctx *runCtx) (instance, error) { return newSolo(ctx, "file") }},
	{"service-mix", "resident daemon over loopback HTTP, closed loop of 2 clients: wire, admission, online scheduler, streaming and stop_after",
		func(ctx *runCtx) (instance, error) { return newService(ctx) }},
	{"batch-sched", "RunBatch at paper scale with 4-tuple blocks: per-block kernel handoff, device models and scheduling dominate, not tuples",
		func(ctx *runCtx) (instance, error) { return newBatch(ctx) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runCtx is what a workload needs from the run that owns it.
type runCtx struct {
	sz      sizes
	seed    int64
	observe bool    // Config.Observe on the systems under test (traced run)
	tr      *tracer // nil on the untraced run
	scratch string  // file-backend scratch root, inside the working directory
	clients int
	fails   *failLog
}

// relSeed derives a relation's generator seed. The system under test
// sees generated relations and requests, never the benchmark seed.
func (c *runCtx) relSeed(i int) int64 { return c.seed*1000 + int64(i) }

// failLog collects correctness violations and failed operations; each
// one counts in fail_share and makes the command exit non-zero.
type failLog struct {
	mu   sync.Mutex
	msgs []string
	n    int
}

func (f *failLog) addf(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failLog) report() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.msgs {
		fmt.Fprintln(os.Stderr, "FAIL:", m)
	}
	if f.n > len(f.msgs) {
		fmt.Fprintf(os.Stderr, "FAIL: ... and %d more\n", f.n-len(f.msgs))
	}
}

// opSample is one timed operation.
type opSample struct {
	kind      string        // method symbol, batch policy, or query class
	wall      time.Duration // call → return (service: POST → result line)
	firstPair time.Duration // call → first output pair in the caller's hands
	failed    bool          // errored, refused, broken on the wire, or wrong
	tuples    int64         // input tuples, R plus S
	host      hostDelta     // what the Go runtime did meanwhile (zero per service query)
}

// svcSample is the service-side account of one query, from its result
// line.
type svcSample struct {
	wireMS, waitMS, runMS float64
	streamed, dropped     int64
}

// roundResult is one round: a fixed sequence of ops.
type roundResult struct {
	ops []opSample
	// wall is what throughput divides by: the sum of op walls where ops
	// run one at a time, the elapsed time where two clients overlap.
	wall time.Duration
	host hostDelta
	// counts are the round's simulated (c) quantities, by per-layer name.
	counts map[string]float64
	svc    []svcSample
	// Service counters over the round.
	pairsStreamed, pairsDropped, rejected, mounts int64
}

// instance is a set-up workload.
type instance interface {
	round() *roundResult
	close()
}

// hostDelta is what the Go runtime did during a measured section.
type hostDelta struct {
	allocB, mallocs, pauseNS uint64
	heapInuse                uint64 // at the end of the section
}

type hostProbe struct{ m0 runtime.MemStats }

func (p *hostProbe) start() { runtime.ReadMemStats(&p.m0) }

func (p *hostProbe) stop() hostDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostDelta{
		allocB:    m.TotalAlloc - p.m0.TotalAlloc,
		mallocs:   m.Mallocs - p.m0.Mallocs,
		pauseNS:   m.PauseTotalNs - p.m0.PauseTotalNs,
		heapInuse: m.HeapInuse,
	}
}

func (d *hostDelta) add(o hostDelta) {
	d.allocB += o.allocB
	d.mallocs += o.mallocs
	d.pauseNS += o.pauseNS
	if o.heapInuse > d.heapInuse {
		d.heapInuse = o.heapInuse
	}
}

// ---- solo workloads ----------------------------------------------------

type soloInst struct {
	ctx       *runCtx
	backend   string
	tpb       int
	keys      uint64
	expected  int64
	refHash   uint64
	tuples    int64
	nextRound int
}

// soloSystem is one freshly built device complex with R and S on their
// own cartridges. Every round gets a new one: the tape-tape methods
// leave hashed copies on the cartridges, so reusing them would make
// each round's seeks — and its simulated time — differ from the last.
type soloSystem struct {
	sys  *tapejoin.System
	r, s *tapejoin.Relation
	dir  string
}

func (x *soloSystem) close() {
	x.sys.Close()
	if x.dir != "" {
		os.RemoveAll(x.dir)
	}
}

func (w *soloInst) build(backend, op string) (*soloSystem, error) {
	sz, tr := w.ctx.sz, w.ctx.tr
	cfg := tapejoin.Config{Backend: backend, MemoryMB: sz.soloMemMB, DiskMB: sz.soloDiskMB, Observe: w.ctx.observe}
	x := &soloSystem{}
	if backend == "file" {
		if err := os.MkdirAll(w.ctx.scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(w.ctx.scratch, "solo-")
		if err != nil {
			return nil, err
		}
		x.dir, cfg.BackendDir = dir, dir
	}
	_, end := tr.begin("NewSystem", op, 0)
	sys, err := tapejoin.NewSystem(cfg)
	end()
	if err != nil {
		return nil, err
	}
	x.sys = sys
	mk := func(name string, mb int64, seedIdx int) (*tapejoin.Relation, error) {
		tp, err := sys.NewTape("tape-"+name, sz.soloTapeMB)
		if err != nil {
			return nil, err
		}
		_, end := tr.begin("CreateRelation", op, 0)
		defer end()
		return sys.CreateRelation(tp, tapejoin.RelationConfig{
			Name: name, SizeMB: mb, TuplesPerBlock: w.tpb, KeySpace: w.keys, Seed: w.ctx.relSeed(seedIdx),
		})
	}
	if x.r, err = mk("R", sz.soloRMB, 1); err == nil {
		x.s, err = mk("S", sz.soloSMB, 2)
	}
	if err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

func newSolo(ctx *runCtx, backend string) (instance, error) {
	w := &soloInst{ctx: ctx, backend: backend, tpb: ctx.sz.matchTPB, keys: ctx.sz.matchKeys}
	other := "file"
	if backend == "file" {
		w.tpb, w.keys, other = ctx.sz.scanTPB, ctx.sz.scanKeys, "sim"
	}
	// The reference output comes from the other backend: the same
	// generated relations must join to the same multiset of pairs on
	// both.
	ref, err := w.build(other, "setup")
	if err != nil {
		return nil, err
	}
	w.expected = tapejoin.ExpectedMatches(ref.r, ref.s)
	w.tuples = ref.r.Tuples() + ref.s.Tuples()
	res, err := ref.sys.Join(tapejoin.CDTGH, ref.r, ref.s)
	ref.close()
	if err != nil {
		return nil, fmt.Errorf("reference join on %s backend: %w", other, err)
	}
	w.refHash = res.Stats.OutputHash
	// One warm-up op on the backend under test.
	x, err := w.build(backend, "setup")
	if err != nil {
		return nil, err
	}
	defer x.close()
	if s, _ := w.op(x, "CDT-GH", "setup"); s.failed {
		return nil, fmt.Errorf("warm-up join failed")
	}
	return w, nil
}

// op runs and checks one solo join. JoinWith hands pairs over only when
// it returns, so the first pair arrives with the result.
func (w *soloInst) op(x *soloSystem, method, opID string) (opSample, *tapejoin.Result) {
	var hp hostProbe
	hp.start()
	_, end := w.ctx.tr.begin("JoinWith "+method, opID, 0)
	t0 := time.Now()
	res, err := x.sys.JoinWith(tapejoin.Method(method), x.r, x.s, tapejoin.JoinOptions{})
	wall := time.Since(t0)
	end()
	s := opSample{kind: method, wall: wall, firstPair: wall, tuples: w.tuples, host: hp.stop()}
	fail := func(format string, args ...any) {
		s.failed = true
		w.ctx.fails.addf("%s %s: %s", w.backend, method, fmt.Sprintf(format, args...))
	}
	if err != nil {
		fail("%v", err)
		return s, nil
	}
	st := res.Stats
	if st.Matches != w.expected {
		fail("matches %d, want %d", st.Matches, w.expected)
	}
	if st.OutputHash != w.refHash {
		fail("output hash %016x, want %016x (other backend, CDT-GH)", st.OutputHash, w.refHash)
	}
	if st.MemPeakMB > w.ctx.sz.soloMemMB {
		fail("MemPeakMB %.3f > M = %v", st.MemPeakMB, w.ctx.sz.soloMemMB)
	}
	if st.DiskPeakMB > w.ctx.sz.soloDiskMB {
		fail("DiskPeakMB %.3f > D = %v", st.DiskPeakMB, w.ctx.sz.soloDiskMB)
	}
	return s, res
}

func (w *soloInst) round() *roundResult {
	w.nextRound++
	rr := &roundResult{counts: map[string]float64{}}
	x, err := w.build(w.backend, fmt.Sprintf("r%d", w.nextRound))
	if err != nil {
		w.ctx.fails.addf("%s round set-up: %v", w.backend, err)
		rr.ops = append(rr.ops, opSample{kind: "setup", failed: true})
		return rr
	}
	defer x.close()
	for i, m := range soloMethods {
		s, res := w.op(x, m, fmt.Sprintf("r%d.%d", w.nextRound, i))
		rr.host.add(s.host)
		rr.ops = append(rr.ops, s)
		rr.wall += s.wall
		if res != nil {
			addSoloCounts(rr.counts, w.backend, res)
		}
	}
	return rr
}

// addSoloCounts folds one join's simulated quantities into the round's
// counts. On the file backend transfer time is measured, not simulated,
// so virtual_s and the buffer trace are left out there; block counts
// stay exact on both.
func addSoloCounts(c map[string]float64, backend string, res *tapejoin.Result) {
	st := res.Stats
	c["tape.read_mb"] += st.TapeReadMB
	c["tape.written_mb"] += st.TapeWrittenMB
	c["tape.seeks"] += float64(st.TapeSeeks)
	c["disk.read_mb"] += st.DiskReadMB
	c["disk.written_mb"] += st.DiskWrittenMB
	c["disk.peak_mb"] = max(c["disk.peak_mb"], st.DiskPeakMB)
	c["buffer.mem_peak_mb"] = max(c["buffer.mem_peak_mb"], st.MemPeakMB)
	if backend != "sim" {
		return
	}
	c["virtual_s"] += st.Response.Seconds()
	c[metricName("virtual.", string(res.Method), "")] = st.Response.Seconds()
	if res.Method == tapejoin.CDTGH {
		c["buffer.util_pct"] = 100 * meanUtilization(res.BufferTrace, res.BufferCapacityMB, st.Response.Seconds())
	}
}

// meanUtilization is the time-weighted mean of the disk buffer's fill
// over the run (Figure 4), from the facade's samples.
func meanUtilization(trace []tapejoin.UtilizationSample, capMB, endS float64) float64 {
	if len(trace) == 0 || capMB == 0 || endS == 0 {
		return 0
	}
	var area float64
	for i, s := range trace {
		until := endS
		if i+1 < len(trace) {
			until = trace[i+1].Seconds
		}
		if until > s.Seconds {
			area += (s.EvenMB + s.OddMB) * (until - s.Seconds)
		}
	}
	return area / (capMB * endS)
}

func (w *soloInst) close() {}

// scratchRoot is where the file backend and the span log write. It is
// relative to the working directory, which the driver makes the
// checkout; .gitignore names it.
const scratchRoot = ".bench_scratch"
