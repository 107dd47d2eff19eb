package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// checkCmd validates the observability outputs the tools export:
// Chrome trace_event JSON from -trace-out (or any Perfetto-loadable
// trace following the same subset), JSON Lines span streams from
// -events-out, and Prometheus text from -metrics-out or a scrape of
// the obs server. It decodes each file and asserts the structural
// invariants the exporters guarantee:
//
//	tapejoin check trace.json [more.json ...]   # Chrome trace schema
//	tapejoin check -wall trace.json             # + wall-clock span args
//	tapejoin check -jsonl [-wall] run.jsonl     # JSON Lines schema
//	tapejoin check -prom metrics.txt            # Prometheus text format
//
// -wall requires the dual-clock fields a wall-clocked (file backend)
// run stamps: every phase span must carry wall_start_s/wall_dur_s (or
// wall_start_s/wall_end_s in JSONL), non-negative and monotone in
// span-open order. Every file is checked; any failure fails the
// command.
func checkCmd(fs *flag.FlagSet) func(io.Writer, []string) error {
	jsonl := fs.Bool("jsonl", false, "validate JSON Lines span/event streams instead of Chrome traces")
	prom := fs.Bool("prom", false, "validate Prometheus text exposition instead of Chrome traces")
	wall := fs.Bool("wall", false, "require wall-clock fields on spans (file-backend runs)")

	check := func(data []byte) error {
		switch {
		case *prom:
			return obs.CheckPromText(data)
		case *jsonl:
			return obs.CheckJSONL(data, *wall)
		default:
			if err := obs.CheckChromeTrace(data); err != nil {
				return err
			}
			if *wall {
				return obs.CheckChromeTraceWall(data)
			}
			return nil
		}
	}
	return func(w io.Writer, paths []string) error {
		if len(paths) == 0 || (*jsonl && *prom) {
			return errors.New("usage: tapejoin check [-jsonl | -prom] [-wall] <file> [...]")
		}
		var bad error
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err == nil {
				err = check(data)
			}
			if err != nil {
				bad = errors.Join(bad, fmt.Errorf("%s: %w", path, err))
				continue
			}
			fmt.Fprintf(w, "%s: ok\n", path)
		}
		return bad
	}
}
