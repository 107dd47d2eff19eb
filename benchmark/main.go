// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and a traced run that
// gives every layer a number. README.md in this directory defines the
// workloads and metrics; BENCHMARK.json at the repository root is the
// output of `go run ./benchmark -list`.
//
//	go run ./benchmark                      # all four workloads, then their traced runs
//	go run ./benchmark -workload W -trace 0 # one workload, end-to-end metrics, JSON last line
//	go run ./benchmark -workload W -trace 1 # one workload, per-layer metrics, JSON last line
//	go run ./benchmark -aa                  # untraced set twice, compared against the bounds
//	go run ./benchmark -list                # the manifest
//
// Simulated time and host time are different things here: every
// end-to-end metric is host wall clock, and the simulated quantities
// (virtual_s and the other (c) counts) are reported by the traced run
// and must not move under a change that only speeds the host path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: omitted when zero
}

func buildManifest() manifest {
	return manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// result is the last line of a -workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toResult(defs []metricDef, m metrics, attempted, failed int) result {
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return out
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	clients  int
	aa       bool
	smoke    bool
}

func main() {
	var o options
	list := flag.Bool("list", false, "print the manifest (BENCHMARK.json) and exit")
	flag.StringVar(&o.workload, "workload", "", "run one workload and print a JSON result as the last line (default: all four, then their traced runs)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the generated relations and request mix")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "timed seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.IntVar(&o.clients, "clients", 2, "closed-loop clients of service-mix (at most nproc)")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced set twice and compare each metric against its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny relations, one round: checks the driver, measures nothing")
	flag.Parse()
	if *list {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fatal(err)
		}
		return
	}
	code, err := run(o)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes the chosen mode and returns the exit code: 1 when any
// operation failed or any correctness check was violated.
func run(o options) (int, error) {
	if flag.NArg() > 0 {
		return 0, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	nproc := runtime.NumCPU()
	if o.clients < 1 || o.clients > nproc {
		return 0, fmt.Errorf("-clients %d: want 1..nproc (%d): more clients than processors measures the sandbox's scheduler", o.clients, nproc)
	}
	if o.seconds < 1 {
		return 0, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return 0, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	runtime.GOMAXPROCS(nproc)
	sz, maxRounds := fullSizes, 0
	if o.smoke {
		sz, maxRounds = smokeSizes, 1
	}
	newCtx := func() *runCtx {
		return &runCtx{sz: sz, seed: o.seed, scratch: scratchRoot, clients: o.clients, fails: &failLog{}}
	}
	target := time.Duration(o.seconds) * time.Second
	printHeader(o)

	var wls []workloadDef
	if o.workload == "" {
		wls = workloads
	} else {
		wl, ok := findWorkload(o.workload)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q (see -list)", o.workload)
		}
		wls = []workloadDef{wl}
	}

	// -aa compares untraced runs only; otherwise -trace picks the run
	// when one workload is named, and the default does both.
	untraced := o.aa || o.workload == "" || o.trace == 0
	traced := !o.aa && (o.workload == "" || o.trace == 1)
	untracedRun := func(wl workloadDef) (*runResult, error) {
		ctx := newCtx()
		defer ctx.fails.report()
		return runWorkload(ctx, wl, target, maxRounds)
	}
	failed := 0
	var last result
	for _, wl := range wls {
		if untraced {
			res, err := untracedRun(wl)
			if err != nil {
				return 0, err
			}
			printEndToEnd(res)
			failed += res.failed
			last = toResult(endToEnd, res.metrics, res.attempted, res.failed)
			if o.aa {
				res2, err := untracedRun(wl)
				if err != nil {
					return 0, err
				}
				failed += res2.failed
				if !printAA(res, res2) {
					failed++
				}
			}
		}
		if traced {
			tres, err := traceWorkload(newCtx, wl, o.smoke)
			if err != nil {
				return 0, err
			}
			printPerLayer(tres)
			failed += tres.failed
			last = toResult(perLayer, tres.metrics, tres.attempted, tres.failed)
		}
	}
	if o.workload != "" {
		b, err := json.Marshal(last)
		if err != nil {
			return 0, err
		}
		fmt.Println(string(b))
	}
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}
