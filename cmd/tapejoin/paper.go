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

// paperCmd regenerates the tables and figures of the paper's
// evaluation (Myllymaki & Livny, ICDE 1997) and this reproduction's
// extensions, one experiment or all (-exp table2, table3, fig1..fig11,
// ablations, recovery, overlap, workload, firsttuple, skew, all). The
// names, titles, runs and verdicts all come from one table,
// exp.Experiments. -scale shrinks the workloads (1.0 = the paper's
// sizes; see package repro/internal/exp for what each experiment
// scales). -quick restricts firsttuple and skew to their CI smoke
// subsets. -format json writes the raw rows as one document. -backend
// picks the overlap experiment's backend. -obs-addr serves live
// telemetry for whichever experiment run is in flight.
//
// Two experiments carry a verdict, and a failed one makes the command
// exit nonzero after the output. recovery fails a scenario whose fault
// never fired, whose output is wrong, or whose lost drive forced no
// re-plan. skew requires the skew-aware planner to win on the
// simulator.
func paperCmd(fs *flag.FlagSet) func(io.Writer, []string) error {
	which := fs.String("exp", "all", "experiment: "+exp.Names())
	scale := fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper sizes)")
	format := fs.String("format", "text", "output format: text or json")
	quick := fs.Bool("quick", false, "run only the CI smoke subset of firsttuple and skew")
	flags := systemFlags(fs, defaults{}, "backend", "obs-addr")

	return func(w io.Writer, _ []string) error {
		if *format != "text" && *format != "json" {
			return fmt.Errorf("unknown format %q", *format)
		}
		sel, err := exp.Select(strings.ToLower(*which))
		if err != nil {
			return err
		}

		if addr := flags.cfg.ObsAddr; addr != "" {
			srv := obsserver.New()
			addr, err := srv.Start(addr)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "obs server listening on http://%s (/metrics /health /flight /debug/pprof)\n", addr)
			exp.ObsServer = srv
		}

		opts := exp.Options{Scale: *scale, Backend: flags.cfg.Backend, Quick: *quick}
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
}
