package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from this run")

const goldenPath = "testdata/paper.golden"

// goldenOptions is the golden's geometry: the CI smokes' -scale 0.1,
// the -quick forms, the sim backend.
var goldenOptions = Options{Scale: 0.1, Backend: "sim", Quick: true}

// runs caches each experiment's value at goldenOptions by key, so the
// golden and the shape tests at the same geometry share one run.
var runs = map[string]any{}

func paperRun(t *testing.T, key string) any {
	t.Helper()
	if v, ok := runs[key]; ok {
		return v
	}
	for _, e := range Experiments {
		if e.Key == key {
			v, err := e.Run(goldenOptions)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			runs[key] = v
			return v
		}
	}
	t.Fatalf("no experiment has key %q", key)
	return nil
}

// TestPaperGolden runs every experiment at goldenOptions, runs its verdict, and compares the pinned rows exactly
// with testdata/paper.golden. Each row is one line, as tapejoin paper
// -format json encodes it: exact virtual nanoseconds and counts, with
// floats to the last bit as amd64 computes them. A change that moves a
// cell must say why; go test ./internal/exp -run TestPaperGolden -update
// rewrites the file.
func TestPaperGolden(t *testing.T) {
	var keys []string
	got := map[string][]string{}
	for _, e := range Experiments {
		if _, done := got[e.Key]; done {
			continue
		}
		v := paperRun(t, e.Key)
		if e.Verdict != nil {
			if err := e.Verdict(v); err != nil {
				t.Errorf("%s verdict: %v", e.Name, err)
			}
		}
		keys = append(keys, e.Key)
		got[e.Key] = rowLines(t, e.pin(v))
	}

	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "== %s ==\n%s\n", k, strings.Join(got[k], "\n"))
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(raw) == b.String() {
		return
	}
	want := map[string][]string{}
	var key string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if k, ok := strings.CutPrefix(line, "== "); ok {
			key = strings.TrimSuffix(k, " ==")
			want[key] = []string{}
		} else {
			want[key] = append(want[key], line)
		}
	}
	for _, k := range keys {
		w, g := want[k], got[k]
		if len(w) != len(g) {
			t.Errorf("%s: %d rows, golden has %d", k, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s row %d moved:\n  golden %s\n  got    %s", k, i, w[i], g[i])
			}
		}
	}
	if len(want) != len(keys) {
		t.Errorf("golden pins %d experiments, the table %d", len(want), len(keys))
	}
	t.Log("rerun with -update once every moved cell is explained")
}

// rowLines encodes a slice of rows one row per line.
func rowLines(t *testing.T, rows any) []string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(raw))
	for i, r := range raw {
		lines[i] = string(r)
	}
	return lines
}
