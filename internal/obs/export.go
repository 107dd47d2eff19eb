package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// chromeEvent is one entry of a Chrome trace_event JSON document.
// Timestamps and durations are microseconds, per the format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// ChromeTrace renders spans and device events as Chrome trace_event
// JSON, loadable in Perfetto or chrome://tracing: each device is a
// track (thread) of I/O slices, each span-opening process is a track
// of phase slices, and zero-width events (faults, restarts) are
// instants. Run-level events (device "-") go on a "marks" track.
func ChromeTrace(spans []*Span, events []Event) ([]byte, error) {
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	pid := 1

	// Track (tid) assignment: devices first, sorted, then span
	// processes in first-span order, then a marks track if needed.
	tids := map[string]int{}
	var names []string
	devSet := map[string]bool{}
	for _, e := range events {
		if e.Device != "-" {
			devSet[e.Device] = true
		}
	}
	devs := make([]string, 0, len(devSet))
	for d := range devSet {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	names = append(names, devs...)
	for _, s := range spans {
		key := "proc:" + s.Proc
		if _, ok := tids[key]; !ok {
			tids[key] = 0
			names = append(names, key)
		}
	}
	hasMarks := false
	for _, e := range events {
		if e.Device == "-" {
			hasMarks = true
			break
		}
	}
	if hasMarks {
		names = append(names, "marks")
	}
	for i, n := range names {
		tids[n] = i + 1
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
			Args: map[string]any{"name": n},
		})
	}

	for _, s := range spans {
		args := map[string]any{"span": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.HasWall() {
			args["wall_start_s"] = s.WallStart.Seconds()
			args["wall_dur_s"] = s.WallDuration().Seconds()
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		end := s.End
		if end < s.Start {
			end = s.Start
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Cat: "phase", Ph: "X",
			Ts: usec(s.Start), Dur: usec(end) - usec(s.Start),
			Pid: pid, Tid: tids["proc:"+s.Proc], Args: args,
		})
	}

	for _, e := range events {
		args := map[string]any{}
		if e.Blocks != 0 {
			args["blocks"] = e.Blocks
		}
		if e.Span != 0 {
			args["span"] = e.Span
		}
		if e.Note != "" {
			args["note"] = e.Note
		}
		ce := chromeEvent{Name: e.Kind.String(), Cat: "device", Pid: pid, Ts: usec(e.Start), Args: args}
		if e.Device == "-" {
			ce.Tid = tids["marks"]
			ce.Ph = "i"
			ce.S = "g"
		} else if e.End <= e.Start {
			ce.Tid = tids[e.Device]
			ce.Ph = "i"
			ce.S = "t"
		} else {
			ce.Tid = tids[e.Device]
			ce.Ph = "X"
			ce.Dur = usec(e.End) - usec(e.Start)
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}

	return json.MarshalIndent(doc, "", " ")
}

// CheckChromeTrace decodes data as Chrome trace_event JSON and asserts
// the invariants Perfetto relies on: a traceEvents array, known phase
// letters, named threads for every track, non-negative timestamps and
// durations. Used by tapejoin check and the CI trace-schema step.
func CheckChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("tracecheck: not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("tracecheck: traceEvents is empty")
	}
	named := map[float64]bool{}
	used := map[float64]bool{}
	slices := 0
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if name == "" {
			return fmt.Errorf("tracecheck: event %d has no name", i)
		}
		tid, ok := ev["tid"].(float64)
		if !ok {
			return fmt.Errorf("tracecheck: event %d (%s) has no numeric tid", i, name)
		}
		if _, ok := ev["pid"].(float64); !ok {
			return fmt.Errorf("tracecheck: event %d (%s) has no numeric pid", i, name)
		}
		switch ph {
		case "M":
			if name == "thread_name" {
				named[tid] = true
			}
			continue
		case "X":
			slices++
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 {
				return fmt.Errorf("tracecheck: complete event %d (%s) has bad dur", i, name)
			}
		case "i":
			// instant: nothing beyond the common checks
		default:
			return fmt.Errorf("tracecheck: event %d (%s) has unsupported ph %q", i, name, ph)
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 {
			return fmt.Errorf("tracecheck: event %d (%s) has bad ts", i, name)
		}
		used[tid] = true
	}
	if slices == 0 {
		return fmt.Errorf("tracecheck: no complete (ph=X) events")
	}
	for tid := range used {
		if !named[tid] {
			return fmt.Errorf("tracecheck: tid %v has events but no thread_name metadata", tid)
		}
	}
	return nil
}

// jsonlSpan and jsonlEvent are the line formats of WriteJSONL.
type jsonlSpan struct {
	Type   string  `json:"type"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Proc   string  `json:"proc"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// Wall-clock stamps (seconds since the run's wall epoch), present
	// only when the run was wall-clocked.
	WallStartS float64 `json:"wall_start_s,omitempty"`
	WallEndS   float64 `json:"wall_end_s,omitempty"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

type jsonlEvent struct {
	Type   string  `json:"type"`
	Device string  `json:"device"`
	Kind   string  `json:"kind"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Blocks int64   `json:"blocks,omitempty"`
	Span   int64   `json:"span,omitempty"`
	Note   string  `json:"note,omitempty"`
}

// WriteJSONL streams spans then events to w, one JSON object per line,
// timestamps in virtual seconds.
func WriteJSONL(w io.Writer, spans []*Span, events []Event) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := jsonlSpan{
			Type: "span", ID: s.ID, Parent: s.Parent, Name: s.Name, Proc: s.Proc,
			StartS: s.Start.Seconds(), EndS: s.End.Seconds(), Attrs: s.Attrs,
		}
		if s.HasWall() {
			line.WallStartS = s.WallStart.Seconds()
			line.WallEndS = s.WallEnd.Seconds()
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	for _, e := range events {
		line := jsonlEvent{
			Type: "event", Device: e.Device, Kind: e.Kind.String(),
			StartS: e.Start.Seconds(), EndS: e.End.Seconds(),
			Blocks: e.Blocks, Span: e.Span, Note: e.Note,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
