// Command tapejoin runs a single tertiary join on the simulated
// device complex and reports its statistics:
//
//	tapejoin -method CTT-GH -r 2500 -s 10000 -mem 16 -disk 500
//
// Sizes are in megabytes (the paper's units). The output reports the
// virtual response time, phase breakdown, device traffic, and the
// verified join cardinality.
//
// With -batch N the command instead runs a synthetic N-query workload
// through the multi-query engine, scheduling the batch over the shared
// drives under -policy (fifo, mount-aware or shared-scan):
//
//	tapejoin -batch 9 -policy shared-scan -r 4 -s 64 -mem 16 -disk 128 -cache 32
//
// Every system flag (-compress, -faults, -timeline, the observability
// outputs, ...) applies to both modes. In batch mode the cost advisor
// picks each query's method unless -method is given explicitly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	tapejoin "repro"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapejoin:", err)
		os.Exit(1)
	}
}

// run parses args, builds the system configuration once and runs a
// single join or, with -batch, a synthetic batch, writing the report
// to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tapejoin", flag.ContinueOnError)
	method := fs.String("method", "CTT-GH", "join method: DT-NB, CDT-NB/MB, CDT-NB/DB, DT-GH, CDT-GH, CTT-GH, TT-GH (also TT-SM, SYM-H); with -batch, every query's method when given (default: the cost advisor picks)")
	rMB := fs.Int64("r", 100, "size of R, the smaller relation (MB)")
	sMB := fs.Int64("s", 1000, "size of S, the larger relation (MB)")
	memMB := fs.Float64("mem", 16, "main memory M (MB)")
	diskMB := fs.Float64("disk", 100, "disk scratch space D (MB)")
	disks := fs.Int("disks", 2, "number of disk drives n")
	ratio := fs.Float64("speed-ratio", 2, "disk/tape speed ratio X_D/X_T")
	compress := fs.Int("compress", 25, "tape data compressibility: 0, 25 or 50 (%)")
	ideal := fs.Bool("ideal", false, "use the paper's idealized cost model (no seeks or penalties)")
	split := fs.Bool("split-buffer", false, "use naive split double-buffering instead of interleaved")
	seed := fs.Int64("seed", 42, "data generator seed")
	keyspace := fs.Uint64("keyspace", 1<<20, "join key space size")
	verify := fs.Bool("verify", true, "check output cardinality against the generator's expectation")
	limit := fs.Int64("limit", 0, "print the first n matched pairs as a sample; presentation-only — the join still runs to completion and the match count stays exact (0 = print none)")
	stopAfter := fs.Int64("stop-after", 0, "stop the join itself after n output pairs — a true LIMIT-n: tape reads cease, the pipelines unwind, and the reported count covers only the delivered prefix (0 = run to completion; SYM-H streams matches earliest)")
	timeline := fs.Bool("timeline", false, "render a device-activity timeline of the run")
	faults := fs.String("faults", "", `fault schedule to inject, e.g. "transient=R:100:2,diskfail=1@40s" or "random=7:3"`)
	noRecover := fs.Bool("no-recover", false, "disable retry/checkpoint/degrade recovery (faults become fatal)")
	phases := fs.Bool("phases", false, "print the per-phase critical-path analysis (bottleneck device, overlap)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file (load in Perfetto / chrome://tracing)")
	eventsOut := fs.String("events-out", "", "write the span/event stream as JSON Lines")
	metricsOut := fs.String("metrics-out", "", "write the metrics registry in Prometheus text format")
	batch := fs.Int("batch", 0, "run a synthetic batch of this many queries through the workload engine (0 = single join)")
	policy := fs.String("policy", "mount-aware", "batch scheduling policy: fifo, mount-aware or shared-scan")
	cacheMB := fs.Float64("cache", 0, "disk staging cache for the batch engine (MB, 0 = disabled)")
	backend := fs.String("backend", "sim", "storage backend: sim (virtual-time simulator) or file (real OS files, wall-clock transfers)")
	backendDir := fs.String("backend-dir", "", "scratch directory for -backend=file (default: the OS temp directory)")
	fileSync := fs.String("file-sync", "interval", "-backend=file fsync policy: none, interval or always")
	fileSynchronous := fs.Bool("file-synchronous", false, "-backend=file: disable the async I/O engine (transfers serialize in wall-clock time)")
	filePace := fs.Float64("file-pace", 0, "-backend=file: emulate modeled device bandwidths sped up this factor in wall-clock (0 = page-cache speed)")
	fileTimeout := fs.Duration("file-timeout", 0, "-backend=file: wall-clock deadline per device operation; overruns degrade the device and trip its breaker (0 = no deadline)")
	obsAddr := fs.String("obs-addr", "", "serve live telemetry (/metrics, /health, /flight, /debug/pprof) on this address while the run is in flight, e.g. 127.0.0.1:9100 (implies observability)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	out := outputs{
		timeline: *timeline,
		phases:   *phases,
		trace:    *traceOut,
		events:   *eventsOut,
		metrics:  *metricsOut,
	}
	cfg := tapejoin.Config{
		Backend:            *backend,
		BackendDir:         *backendDir,
		FileSync:           *fileSync,
		FileSynchronous:    *fileSynchronous,
		FilePace:           *filePace,
		FileOpTimeout:      *fileTimeout,
		MemoryMB:           *memMB,
		DiskMB:             *diskMB,
		NumDisks:           *disks,
		DiskTapeSpeedRatio: *ratio,
		SplitBuffering:     *split,
		Observe:            out.enabled(),
		Faults:             *faults,
		DisableRecovery:    *noRecover,
		ObsAddr:            *obsAddr,
	}
	switch *compress {
	case 0:
		cfg.Compression = tapejoin.Compress0
	case 25:
		cfg.Compression = tapejoin.Compress25
	case 50:
		cfg.Compression = tapejoin.Compress50
	default:
		return fmt.Errorf("compress must be 0, 25 or 50, got %d", *compress)
	}
	if *ideal {
		cfg.Profile = tapejoin.IdealTape
	}

	if *batch == 0 {
		return runJoin(w, cfg, *method, *rMB, *sMB, *seed, *keyspace,
			*verify, *limit, *stopAfter, out)
	}
	if *stopAfter != 0 || *limit != 0 {
		return errors.New("-stop-after and -limit apply to a single join, not to -batch")
	}
	batchMethod := ""
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "method" {
			batchMethod = *method
		}
	})
	return runBatch(w, cfg, *batch, batchMethod, *policy, *cacheMB,
		*rMB, *sMB, *seed, *keyspace, *verify, out)
}

// outputs collects the timeline and observability flags; any of them
// enables Config.Observe.
type outputs struct {
	timeline, phases       bool
	trace, events, metrics string
}

func (o outputs) enabled() bool {
	return o.timeline || o.phases || o.trace != "" || o.events != "" || o.metrics != ""
}

// runJoin runs one join of an R of rMB and an S of sMB megabytes.
func runJoin(w io.Writer, cfg tapejoin.Config, method string, rMB, sMB int64,
	seed int64, keyspace uint64, verify bool, limit, stopAfter int64, out outputs) error {

	sys, err := tapejoin.NewSystem(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	if addr := sys.ObsAddr(); addr != "" {
		fmt.Fprintf(w, "obs server listening on http://%s (/metrics /health /flight /debug/pprof)\n", addr)
	}
	tR, err := sys.NewTape("tape-R", rMB+sMB+2)
	if err != nil {
		return err
	}
	tS, err := sys.NewTape("tape-S", sMB+rMB+2)
	if err != nil {
		return err
	}
	r, err := sys.CreateRelation(tR, tapejoin.RelationConfig{
		Name: "R", SizeMB: rMB, KeySpace: keyspace, Seed: seed,
	})
	if err != nil {
		return err
	}
	s, err := sys.CreateRelation(tS, tapejoin.RelationConfig{
		Name: "S", SizeMB: sMB, KeySpace: keyspace, Seed: seed + 1,
	})
	if err != nil {
		return err
	}

	res, err := sys.JoinWith(tapejoin.Method(method), r, s, tapejoin.JoinOptions{
		StopAfter: stopAfter,
		Sample:    int(limit),
	})
	if err != nil {
		return err
	}
	st := res.Stats

	fmt.Fprintf(w, "%s: R=%d MB  S=%d MB  M=%g MB  D=%g MB  n=%d disks  backend=%s\n",
		method, rMB, sMB, cfg.MemoryMB, cfg.DiskMB, cfg.NumDisks, cfg.Backend)
	fmt.Fprintf(w, "  response time     %v\n", st.Response.Round(0))
	fmt.Fprintf(w, "  step I (setup)    %v\n", st.StepI.Round(0))
	fmt.Fprintf(w, "  bare read of S+R  %v\n", sys.BareReadTime(float64(sMB+rMB)).Round(0))
	fmt.Fprintf(w, "  relative cost     %.1f\n",
		float64(st.Response)/float64(sys.BareReadTime(float64(sMB+rMB))))
	fmt.Fprintf(w, "  iterations        %d\n", st.Iterations)
	fmt.Fprintf(w, "  passes over R     %d\n", st.RScans)
	fmt.Fprintf(w, "  tape read/write   %.0f / %.0f MB (%d seeks)\n", st.TapeReadMB, st.TapeWrittenMB, st.TapeSeeks)
	fmt.Fprintf(w, "  disk read/write   %.0f / %.0f MB (peak %.1f MB)\n", st.DiskReadMB, st.DiskWrittenMB, st.DiskPeakMB)
	fmt.Fprintf(w, "  memory peak       %.2f MB\n", st.MemPeakMB)
	fmt.Fprintf(w, "  device util       tapeR %.0f%%  tapeS %.0f%%  disks %.0f%%\n",
		100*st.TapeRUtil, 100*st.TapeSUtil, 100*st.DiskUtil)
	fmt.Fprintf(w, "  output tuples     %d\n", st.Matches)
	if st.FirstTuple > 0 {
		fmt.Fprintf(w, "  first tuple       %v\n", st.FirstTuple.Round(0))
	}
	if st.Stopped {
		fmt.Fprintf(w, "  stopped early     after %d pairs (stop-after %d)\n", st.Matches, stopAfter)
	}
	if len(res.Sample) > 0 {
		fmt.Fprintf(w, "  sample pairs      first %d of %d:\n", len(res.Sample), st.Matches)
		for _, pr := range res.Sample {
			fmt.Fprintf(w, "    r.key=%d s.key=%d\n", pr.RKey, pr.SKey)
		}
	}
	if st.WallElapsed > 0 {
		fmt.Fprintf(w, "  wall elapsed      %v (real I/O, overlap %.0f%%)\n",
			st.WallElapsed.Round(0), 100*st.WallOverlap)
	}
	if cfg.Faults != "" {
		fmt.Fprintf(w, "  faults injected   %d (%d retries, %d unit restarts)\n",
			st.Faults, st.Retries, st.UnitRestarts)
		fmt.Fprintf(w, "  recovery time     %v\n", st.RecoveryTime.Round(0))
		if st.DisksLost > 0 {
			fmt.Fprintf(w, "  disks lost        %d\n", st.DisksLost)
		}
		if st.DriveLost {
			fmt.Fprintf(w, "  drive lost        degraded to %s\n", st.DegradedTo)
		}
	}

	if err := writeObs(w, res.Report, out); err != nil {
		return err
	}

	if verify {
		want := tapejoin.ExpectedMatches(r, s)
		if stopAfter > 0 && want > stopAfter {
			// A stopped run delivers an exact prefix: min(n, |R ⋈ S|).
			want = stopAfter
		}
		if st.Matches != want {
			return fmt.Errorf("VERIFICATION FAILED: %d matches, expected %d", st.Matches, want)
		}
		fmt.Fprintf(w, "  verification      ok (%d expected matches)\n", want)
	}
	return nil
}

// runBatch builds a synthetic n-query batch — S relations spread over
// three cartridges, R relations over two, submission order alternating
// S cartridges — and runs it through the workload engine under the
// given policy. A non-empty method is requested for every query.
func runBatch(w io.Writer, cfg tapejoin.Config, n int, method, policy string, cacheMB float64,
	rMB, sMB int64, seed int64, keyspace uint64, verify bool, out outputs) error {

	sys, err := tapejoin.NewSystem(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	if addr := sys.ObsAddr(); addr != "" {
		fmt.Fprintf(w, "obs server listening on http://%s (/metrics /health /flight /debug/pprof)\n", addr)
	}

	nS := 3
	if n < nS {
		nS = n
	}
	sRels := make([]*tapejoin.Relation, nS)
	for i := range sRels {
		t, err := sys.NewTape(fmt.Sprintf("tape-S%d", i+1), sMB+2)
		if err != nil {
			return err
		}
		sRels[i], err = sys.CreateRelation(t, tapejoin.RelationConfig{
			Name: fmt.Sprintf("S%d", i+1), SizeMB: sMB,
			KeySpace: keyspace, Seed: seed + int64(100+i),
		})
		if err != nil {
			return err
		}
	}
	nR := 4
	if n < nR {
		nR = n
	}
	rRels := make([]*tapejoin.Relation, nR)
	for i := range rRels {
		t, err := sys.NewTape(fmt.Sprintf("tape-R%d", i/2+1), 2*rMB+2)
		if err != nil {
			return err
		}
		rRels[i], err = sys.CreateRelation(t, tapejoin.RelationConfig{
			Name: fmt.Sprintf("R%d", i+1), SizeMB: rMB,
			KeySpace: keyspace, Seed: seed + int64(i),
		})
		if err != nil {
			return err
		}
	}

	queries := make([]tapejoin.BatchQuery, n)
	expected := make([]int64, n)
	for i := range queries {
		r, s := rRels[i%nR], sRels[i%nS]
		queries[i] = tapejoin.BatchQuery{Method: tapejoin.Method(method), R: r, S: s}
		expected[i] = tapejoin.ExpectedMatches(r, s)
	}

	rep, err := sys.RunBatch(queries, tapejoin.BatchOptions{
		Policy:  tapejoin.BatchPolicy(policy),
		CacheMB: cacheMB,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "batch: %d queries  policy=%s  M=%g MB  D=%g MB  cache=%g MB\n",
		n, rep.Policy, cfg.MemoryMB, cfg.DiskMB, cacheMB)
	fmt.Fprintf(w, "  makespan          %v\n", rep.Makespan.Round(0))
	fmt.Fprintf(w, "  mounts            %d (R %d, S %d)\n", rep.Mounts, rep.RMounts, rep.SMounts)
	fmt.Fprintf(w, "  shared passes     %d\n", rep.SharedPasses)
	fmt.Fprintf(w, "  cache             %d hits, %d misses, %d evictions\n",
		rep.CacheHits, rep.CacheMisses, rep.CacheEvictions)
	fmt.Fprintf(w, "  tape read/write   %.0f / %.0f MB\n", rep.TapeReadMB, rep.TapeWrittenMB)
	fmt.Fprintf(w, "  disk peak         %.1f MB\n", rep.DiskPeakMB)
	fmt.Fprintln(w, "  queries:")
	for i, qr := range rep.Queries {
		flagStr := ""
		if qr.Shared {
			flagStr += " shared"
		}
		if qr.CacheHit {
			flagStr += " cache-hit"
		}
		if qr.Failed {
			fmt.Fprintf(w, "    %-4s FAILED: %s\n", qr.ID, qr.Reason)
			continue
		}
		fmt.Fprintf(w, "    %-4s %-10s wait %8v  run %8v  %d matches%s\n",
			qr.ID, qr.Method, qr.Wait.Round(0), (qr.End - qr.Start).Round(0), qr.Matches, flagStr)
		if verify && qr.Matches != expected[i] {
			return fmt.Errorf("VERIFICATION FAILED: query %s got %d matches, expected %d",
				qr.ID, qr.Matches, expected[i])
		}
	}
	if err := writeObs(w, rep.Report, out); err != nil {
		return err
	}
	if verify {
		fmt.Fprintln(w, "  verification      ok (all queries match expected cardinalities)")
	}
	return nil
}

// writeObs prints the device timeline and the phase analysis and
// writes the requested export files from a run's observability report
// (nil when no output was asked for).
func writeObs(w io.Writer, rep *tapejoin.Report, out outputs) error {
	if !out.enabled() {
		return nil
	}
	if out.timeline {
		fmt.Fprintln(w, "\ndevice timeline (r=read w=write s=seek x=exchange . idle):")
		fmt.Fprint(w, rep.Timeline())
		fmt.Fprintln(w, "\nper-device busy breakdown:")
		fmt.Fprint(w, rep.DeviceSummary())
		fmt.Fprintln(w)
	}
	if out.phases {
		fmt.Fprintln(w, "\nphase analysis (critical path per phase):")
		fmt.Fprint(w, rep.String())
	}
	if out.trace != "" {
		data, err := rep.ChromeTrace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.trace, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "  chrome trace      %s (load in ui.perfetto.dev)\n", out.trace)
	}
	if out.events != "" {
		f, err := os.Create(out.events)
		if err != nil {
			return err
		}
		if err := rep.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "  event stream      %s\n", out.events)
	}
	if out.metrics != "" {
		if err := os.WriteFile(out.metrics, []byte(rep.MetricsText()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "  metrics           %s\n", out.metrics)
	}
	return nil
}
