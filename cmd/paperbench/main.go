// Command paperbench regenerates every table and figure of the
// paper's evaluation (Myllymaki & Livny, ICDE 1997):
//
//	paperbench -exp table2          # resource requirements, measured
//	paperbench -exp table3          # Experiment 1 (CTT-GH, Joins I-IV)
//	paperbench -exp fig1            # analytic: small |R|
//	paperbench -exp fig2            # analytic: medium |R|
//	paperbench -exp fig3            # analytic: large |R|
//	paperbench -exp fig4            # buffer utilization trace
//	paperbench -exp fig5            # Experiment 2 (disk space sweep)
//	paperbench -exp fig6..fig9      # Experiment 3 (memory sweep, 25%)
//	paperbench -exp fig10           # Experiment 3 at 0% compressible
//	paperbench -exp fig11           # Experiment 3 at 50% compressible
//	paperbench -exp ablations       # design-choice ablations
//	paperbench -exp recovery        # fault injection and recovery
//	paperbench -exp overlap         # per-phase critical path and device overlap
//	paperbench -exp workload        # multi-query batch scheduling policies
//	paperbench -exp firsttuple      # streaming: time-to-first-tuple and time-to-k
//	paperbench -exp chaos           # wall-clock fault tolerance on the file backend
//	paperbench -exp obsload         # instrumentation overhead vs budget
//	paperbench -exp skew            # uniform vs Zipf 0.99, skew-aware partitioning
//	paperbench -exp all             # everything
//
// The names, titles, runs and verdicts all come from one table,
// exp.Experiments. -scale shrinks the workloads (1.0 = the paper's
// sizes; see package repro/internal/exp for what each experiment
// scales). -quick restricts firsttuple, chaos and skew to their CI
// smoke subsets. -format json writes the raw rows as one document.
// -obs-addr serves live telemetry (/metrics, /health, /flight,
// /debug/pprof) for whichever experiment run is currently in flight.
//
// Four experiments carry a verdict, and a failed one makes the command
// exit nonzero after the output. recovery fails a scenario whose fault
// never fired, whose output is wrong, or whose lost drive forced no
// re-plan. chaos runs a fault matrix (transient syscall EIO, stuck
// workers, stored corruption, a device death mid-batch) against the
// file backend: every scenario either completes with the clean
// reference's exact payload hash or fails fast with a typed error —
// never a hang, never wrong tuples. obsload holds the
// instrumentation's costs to their budgets, and skew requires the
// skew-aware planner to win on the simulator.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs/obsserver"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// run writes the selected experiments to w as text sections or as one
// JSON document. A failed verdict is returned after the output.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	which := fs.String("exp", "all", "experiment: "+exp.Names())
	scale := fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper sizes)")
	format := fs.String("format", "text", "output format: text or json")
	backend := fs.String("backend", "sim", "storage backend for the overlap experiment: sim or file")
	quick := fs.Bool("quick", false, "run only the CI smoke subset of firsttuple, chaos and skew")
	obsAddr := fs.String("obs-addr", "", "serve live telemetry (/metrics, /health, /flight, /debug/pprof) on this address while experiments run, e.g. 127.0.0.1:9100")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}
	sel, err := exp.Select(strings.ToLower(*which))
	if err != nil {
		return err
	}

	if *obsAddr != "" {
		srv := obsserver.New()
		addr, err := srv.Start(*obsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs server listening on http://%s (/metrics /health /flight /debug/pprof)\n", addr)
		exp.ObsServer = srv
	}

	opts := exp.Options{Scale: *scale, Backend: *backend, Quick: *quick}
	start := time.Now()
	out := map[string]any{"scale": *scale}
	var verdicts error
	for _, e := range sel {
		if *format == "text" {
			fmt.Fprintf(w, "== %s ==\n", e.Title)
		}
		v, done := out[e.Key]
		if !done {
			if v, err = e.Run(opts); err != nil {
				return err
			}
			out[e.Key] = v
			if e.Verdict != nil {
				verdicts = errors.Join(verdicts, e.Verdict(v))
			}
		}
		if *format == "text" {
			fmt.Fprintln(w, e.Text(v))
		}
	}
	if *format == "text" {
		fmt.Fprintf(w, "(wall time %v)\n", time.Since(start).Round(time.Millisecond))
	} else {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return verdicts
}
