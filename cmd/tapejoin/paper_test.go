package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestUnknownExperimentListsEveryName: a name outside the table, such
// as the wall-clock checks that moved to tests, is an error listing
// every experiment.
func TestUnknownExperimentListsEveryName(t *testing.T) {
	for _, name := range []string{"fig12", "chaos", "obsload"} {
		err := run([]string{"paper", "-exp", name}, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("unknown experiment %s accepted", name)
		}
		for _, e := range exp.Experiments {
			if !strings.Contains(err.Error(), e.Name) {
				t.Errorf("error %q does not list %s", err, e.Name)
			}
		}
	}
}

func TestFig1BothFormats(t *testing.T) {
	var text bytes.Buffer
	if err := run([]string{"paper", "-exp", "fig1"}, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text.String(), "== Figure 1: ") || !strings.Contains(text.String(), "CTT-GH") {
		t.Errorf("text output:\n%s", text.String())
	}

	var js bytes.Buffer
	if err := run([]string{"paper", "-exp", "fig1", "-format", "json"}, &js); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(js.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out["scale"] == nil || out["figure1"] == nil {
		t.Errorf("want keys scale and figure1, got %s", js.String())
	}
}

// TestAllJSONKeysAreTheTable: -exp all writes one value per key of the
// table, plus the scale, and runs each key once (fig6-fig9 share one
// Experiment 3). The runs are stubs: internal/exp's golden test runs
// the real ones.
func TestAllJSONKeysAreTheTable(t *testing.T) {
	table := exp.Experiments
	defer func() { exp.Experiments = table }()
	runs := map[string]int{}
	want := map[string]bool{"scale": true}
	exp.Experiments = nil
	for _, e := range table {
		e.Run = func(exp.Options) (any, error) { runs[e.Key]++; return []int{}, nil }
		e.Verdict = nil
		exp.Experiments = append(exp.Experiments, e)
		want[e.Key] = true
	}

	var js bytes.Buffer
	if err := run([]string{"paper", "-exp", "all", "-format", "json"}, &js); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(js.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) {
		t.Errorf("%d keys, want %d", len(out), len(want))
	}
	for k := range want {
		if out[k] == nil {
			t.Errorf("key %q missing", k)
		}
	}
	for k, n := range runs {
		if n != 1 {
			t.Errorf("%s ran %d times", k, n)
		}
	}
}
