package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	tapejoin "repro"
)

// joinCmd is the single join and, with -batch, the synthetic batch.
func joinCmd(fs *flag.FlagSet) func(io.Writer, []string) error {
	method := fs.String("method", "CTT-GH", "join method: DT-NB, CDT-NB/MB, CDT-NB/DB, DT-GH, CDT-GH, CTT-GH, TT-GH (also TT-SM, SYM-H); with -batch, every query's method when given (default: the cost advisor picks)")
	rMB := fs.Int64("r", 100, "size of R, the smaller relation (MB)")
	sMB := fs.Int64("s", 1000, "size of S, the larger relation (MB)")
	seed := fs.Int64("seed", 42, "data generator seed")
	keyspace := fs.Uint64("keyspace", 1<<20, "join key space size")
	verify := fs.Bool("verify", true, "check output cardinality against the generator's expectation")
	limit := fs.Int64("limit", 0, "print the first n matched pairs as a sample; presentation-only — the join still runs to completion and the match count stays exact (0 = print none)")
	stopAfter := fs.Int64("stop-after", 0, "stop the join itself after n output pairs — a true LIMIT-n: tape reads cease, the pipelines unwind, and the reported count covers only the delivered prefix (0 = run to completion; SYM-H streams matches earliest)")
	var out outputs
	fs.BoolVar(&out.timeline, "timeline", false, "render a device-activity timeline of the run")
	fs.BoolVar(&out.phases, "phases", false, "print the per-phase critical-path analysis (bottleneck device, overlap)")
	fs.StringVar(&out.trace, "trace-out", "", "write a Chrome trace_event JSON file (load in Perfetto / chrome://tracing)")
	fs.StringVar(&out.events, "events-out", "", "write the span/event stream as JSON Lines")
	fs.StringVar(&out.metrics, "metrics-out", "", "write the metrics registry in Prometheus text format")
	batch := fs.Int("batch", 0, "run a synthetic batch of this many queries through the workload engine (0 = single join)")
	flags := systemFlags(fs, defaults{memMB: 16, diskMB: 100},
		"mem", "disk", "disks", "speed-ratio", "compress", "ideal", "split-buffer",
		"faults", "no-recover", "backend", "backend-dir", "file-sync",
		"file-pace", "file-timeout", "obs-addr", "policy", "cache")

	return func(w io.Writer, _ []string) error {
		cfg, err := flags.config()
		if err != nil {
			return err
		}
		cfg.Observe = out.enabled()
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
		spec := catalogSpec{nS: min(3, *batch), nR: min(4, *batch),
			sMB: *sMB, rMB: *rMB, seed: *seed, keyspace: *keyspace}
		return runBatch(w, cfg, *batch, batchMethod, flags.policy, flags.cacheMB, spec, *verify, out)
	}
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

// newSystem builds the system of a join or batch and announces its obs
// server, if it has one.
func newSystem(w io.Writer, cfg tapejoin.Config) (*tapejoin.System, error) {
	sys, err := tapejoin.NewSystem(cfg)
	if err == nil && sys.ObsAddr() != "" {
		fmt.Fprintf(w, "obs server listening on http://%s (/metrics /health /flight /debug/pprof)\n", sys.ObsAddr())
	}
	return sys, err
}

// runJoin runs one join of an R of rMB and an S of sMB megabytes.
func runJoin(w io.Writer, cfg tapejoin.Config, method string, rMB, sMB int64,
	seed int64, keyspace uint64, verify bool, limit, stopAfter int64, out outputs) error {

	sys, err := newSystem(w, cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
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

// runBatch builds the synthetic catalog of spec and runs an n-query
// batch over it through the workload engine under the given policy:
// query i joins R relation i mod nR with S relation i mod nS, so
// submission order alternates S cartridges. A non-empty method is
// requested for every query.
func runBatch(w io.Writer, cfg tapejoin.Config, n int, method, policy string, cacheMB float64,
	spec catalogSpec, verify bool, out outputs) error {

	sys, err := newSystem(w, cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	rRels, sRels, err := catalog(sys, spec)
	if err != nil {
		return err
	}
	nR, nS := len(rRels), len(sRels)

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
