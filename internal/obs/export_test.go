package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func exportFixture() ([]*Span, []Event) {
	spans := []*Span{
		{ID: 1, Name: "stage-S", Proc: "join:X", Start: 0, End: secs(10), Attrs: []Attr{A("off", "0")}},
		{ID: 2, Parent: 1, Name: "retry-backoff", Proc: "join:X", Start: secs(4), End: secs(6)},
	}
	events := []Event{
		{Device: "tape:S", Kind: TapeRead, Start: 0, End: secs(10), Blocks: 160, Span: 1},
		{Device: "tape:S", Kind: Fault, Start: secs(4), End: secs(4), Span: 2, Note: "transient"},
		{Device: "disk0", Kind: DiskWrite, Start: secs(2), End: secs(9), Blocks: 120, Span: 1},
		{Device: "-", Kind: Degrade, Start: secs(10), End: secs(10), Note: "step I done"},
	}
	return spans, events
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans, events := exportFixture()
	data, err := ChromeTrace(spans, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckChromeTrace(data); err != nil {
		t.Fatalf("exporter output fails its own checker: %v", err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	// Tracks: disk0, tape:S, proc:join:X, marks -> 4 metadata events.
	meta := map[string]int{}
	var slices, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta[e.Args["name"].(string)] = e.Tid
		case "X":
			slices++
			if e.Dur < 0 {
				t.Errorf("negative dur on %s", e.Name)
			}
		case "i":
			instants++
		}
	}
	for _, want := range []string{"disk0", "tape:S", "proc:join:X", "marks"} {
		if _, ok := meta[want]; !ok {
			t.Errorf("missing track %q (have %v)", want, meta)
		}
	}
	if meta["disk0"] != 1 || meta["tape:S"] != 2 {
		t.Errorf("devices should get the first sorted tids: %v", meta)
	}
	// 2 span slices + 2 device slices; fault and mark are instants.
	if slices != 4 || instants != 2 {
		t.Errorf("slices = %d, instants = %d", slices, instants)
	}
}

func TestCheckChromeTraceRejectsBadDocs(t *testing.T) {
	for name, doc := range map[string]string{
		"garbage":     "not json",
		"empty":       `{"traceEvents": []}`,
		"no name":     `{"traceEvents": [{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		"no tid":      `{"traceEvents": [{"name":"a","ph":"X","ts":0,"dur":1,"pid":1}]}`,
		"bad ph":      `{"traceEvents": [{"name":"a","ph":"Z","ts":0,"pid":1,"tid":1}]}`,
		"neg dur":     `{"traceEvents": [{"name":"a","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
		"no slices":   `{"traceEvents": [{"name":"a","ph":"i","ts":0,"pid":1,"tid":1}]}`,
		"unnamed tid": `{"traceEvents": [{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":9}]}`,
	} {
		if CheckChromeTrace([]byte(doc)) == nil {
			t.Errorf("%s: checker accepted invalid trace", name)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	spans, events := exportFixture()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans, events); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != len(spans)+len(events) {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[0]["type"] != "span" || lines[0]["name"] != "stage-S" || lines[0]["end_s"] != 10.0 {
		t.Errorf("span line = %v", lines[0])
	}
	if attrs := lines[0]["attrs"].([]any); attrs[0].(map[string]any)["key"] != "off" {
		t.Errorf("attrs line = %v", lines[0]["attrs"])
	}
	if lines[2]["type"] != "event" || lines[2]["kind"] != "tape-read" || lines[2]["blocks"] != 160.0 {
		t.Errorf("event line = %v", lines[2])
	}
	if !strings.Contains(lines[5]["note"].(string), "step I") {
		t.Errorf("mark line = %v", lines[5])
	}
}
