package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}, {1.0 / 3, 20},
	} {
		got, n := percentile(xs, c.q)
		if math.Abs(got-c.want) > 1e-9 || n != 4 {
			t.Errorf("percentile(%v) = %v over %d samples, want %v over 4", c.q, got, n, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got, n := percentile(nil, 0.5); got != 0 || n != 0 {
		t.Errorf("percentile of no samples = %v over %d, want 0 over 0", got, n)
	}
	if got, n := percentile([]float64{7}, 0.99); got != 7 || n != 1 {
		t.Errorf("percentile of one sample = %v over %d, want 7 over 1", got, n)
	}
}

// The driver's contract for names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
	}
	if !setup {
		t.Error(`end-to-end metrics need setup_s with unit "s", lower is better`)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the driver's charset", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check("per-layer", d.Name)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// BENCHMARK.json at the repository root is `go run ./benchmark -list`:
// the names the command prints are the names the driver expects.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -list`; regenerate it:\n%s", b)
	}
}

// TestSmoke drives all four workloads, untraced and traced, at the
// smoke scale, so the benchmark cannot rot unnoticed: every correctness
// check must hold and every declared metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	scratch := t.TempDir()
	newCtx := func() *runCtx {
		return &runCtx{sz: smokeSizes, seed: 7, scratch: scratch, clients: 1, fails: &failLog{}}
	}
	for _, wl := range workloads {
		ctx := newCtx()
		res, err := runWorkload(ctx, wl, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted: %v", wl.Name, res.failed, res.attempted, ctx.fails.msgs)
		}
		for _, d := range endToEnd {
			if v := res.metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, d.Name, v)
			}
		}
		tres, err := traceWorkload(newCtx, wl, true)
		if err != nil {
			t.Fatal(err)
		}
		if tres.failed != 0 {
			t.Errorf("%s: traced run: %d failures", wl.Name, tres.failed)
		}
		for name := range tres.metrics {
			if defUnit(perLayer, name) == "" {
				t.Errorf("%s: traced run reports undeclared metric %s", wl.Name, name)
			}
		}
		for _, name := range []string{"relation.gen_tuples_per_s", "sim.hold_switch_ns", "obs.trace_overhead_ratio", "host.mallocs_per_op"} {
			if !(tres.metrics[name] > 0) {
				t.Errorf("%s: per-layer metric %s = %v, want > 0", wl.Name, name, tres.metrics[name])
			}
		}
		if st, err := os.Stat(tres.spansPath); err != nil || st.Size() == 0 {
			t.Errorf("%s: no spans written: %v", wl.Name, err)
		}
	}
}
