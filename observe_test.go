package tapejoin

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

func observedJoin(t *testing.T, m Method, cfg Config) *Result {
	t.Helper()
	cfg.Observe = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, s := makeRelations(t, sys)
	res, err := sys.Join(m, r, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestObserveReport(t *testing.T) {
	res := observedJoin(t, CDTGH, Config{MemoryMB: 1, DiskMB: 4, Profile: IdealTape})
	rep := res.Report
	if rep == nil {
		t.Fatal("Observe set but Report is nil")
	}
	if rep.Total.Wall <= 0 || rep.Total.Bottleneck == "" {
		t.Fatalf("total = %+v", rep.Total)
	}
	phases := map[string]PhaseReport{}
	for _, p := range rep.Phases {
		phases[p.Name] = p
		if p.Wall <= 0 || p.Count < 1 {
			t.Errorf("degenerate phase %+v", p)
		}
		if p.Overlap < 0 || p.Overlap >= 1 {
			t.Errorf("phase %s overlap %v outside [0, 1)", p.Name, p.Overlap)
		}
		if p.BottleneckBusy > p.Wall {
			t.Errorf("phase %s busy %v exceeds wall %v", p.Name, p.BottleneckBusy, p.Wall)
		}
	}
	for _, want := range []string{"hash-R", "stage-S", "join-chunk"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("CDT-GH run missing phase %q (have %v)", want, rep.Phases)
		}
	}
	if s := rep.String(); !strings.Contains(s, "TOTAL") || !strings.Contains(s, "stage-S") {
		t.Errorf("phase table:\n%s", s)
	}
}

func TestObserveExporters(t *testing.T) {
	res := observedJoin(t, CDTGH, Config{MemoryMB: 1, DiskMB: 4, Profile: IdealTape})
	rep := res.Report

	data, err := rep.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckChromeTrace(data); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"span"`) || !strings.Contains(buf.String(), `"type":"event"`) {
		t.Error("JSONL stream missing spans or events")
	}

	text := rep.MetricsText()
	for _, want := range []string{
		`tape_blocks_read_total{drive="S"}`,
		"disk_blocks_written_total",
		"# TYPE tape_request_seconds histogram",
		"buffer_occupancy_ratio",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	js, err := rep.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte("tape_blocks_read_total")) {
		t.Error("metrics JSON missing tape counter")
	}
}

func TestObserveOffLeavesReportNil(t *testing.T) {
	sys := quickSystem(t, 1, 4)
	r, s := makeRelations(t, sys)
	res, err := sys.Join(CDTGH, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Fatal("Report should be nil without Observe")
	}
}

// TestObserveLeavesResultUnperturbed runs each method on the simulator
// with Observe off and on: recording spans, events and metrics must not
// move the virtual result, so every Stats field (response time,
// matches, output hash, tape and disk traffic, seeks, peaks) is equal.
func TestObserveLeavesResultUnperturbed(t *testing.T) {
	for _, m := range Methods() {
		var stats [2]Stats
		for i, observe := range []bool{false, true} {
			sys, err := NewSystem(Config{MemoryMB: 1, DiskMB: 8, Observe: observe})
			if err != nil {
				t.Fatal(err)
			}
			r, s := makeRelations(t, sys)
			res, err := sys.Join(m, r, s)
			if err != nil {
				t.Fatalf("%s observe=%v: %v", m, observe, err)
			}
			stats[i] = res.Stats
		}
		if stats[0].Matches == 0 || stats[0].TapeReadMB == 0 {
			t.Fatalf("%s: vacuous run: %+v", m, stats[0])
		}
		if stats[0] != stats[1] {
			t.Errorf("%s: Observe moved the result:\n off %+v\n on  %+v", m, stats[0], stats[1])
		}
	}
}

func TestObserveWithFaultsCountsDecisions(t *testing.T) {
	res := observedJoin(t, CTTGH, Config{
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		Faults: "transient=R:5:2",
	})
	text := res.Report.MetricsText()
	if !strings.Contains(text, `fault_decisions_total{outcome="transient"} 2`) {
		t.Errorf("fault decisions not counted:\n%s", grepLines(text, "fault"))
	}
	if !strings.Contains(text, "join_retry_backoff_seconds_count") {
		t.Errorf("retry backoff histogram missing:\n%s", grepLines(text, "retry"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
