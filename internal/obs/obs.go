// Package obs is the structured observability layer of the simulator:
// hierarchical phase spans opened and closed in virtual time, the
// device I/O events those phases issue (with a text timeline and
// per-device summary), a metrics registry with Prometheus-style text
// exposition, exporters to a JSONL event stream and Chrome
// trace_event JSON (loadable in Perfetto or chrome://tracing), and a
// critical-path analyzer that turns span and device intervals into a
// per-phase bottleneck and overlap table — the paper's Figures 7–9
// argument as a computed number.
//
// Everything is nil-tolerant: a nil *Tracker or nil *Registry (and the
// nil *Counter etc. they hand out) records nothing, so instrumented
// code calls unconditionally.
package obs

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Attr is one key/value annotation on a span or one label on a metric
// series.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt builds an integer attribute.
func AInt(key string, v int64) Attr { return Attr{Key: key, Value: fmt.Sprintf("%d", v)} }

// Span is one phase of a join run, bounded in virtual time. Spans form
// a tree per simulation process: a span opened while another is open
// on the same process becomes its child.
type Span struct {
	// ID is unique within the tracker; 0 is "no span".
	ID int64
	// Parent is the enclosing span's ID, or 0 for a top-level phase.
	Parent int64
	// Name is the phase name, e.g. "stage-S" or "bucket-pair".
	Name string
	// Proc names the simulation process that opened the span.
	Proc string
	// Start and End bound the span in virtual time.
	Start, End sim.Time
	// WallStart and WallEnd bound the span in wall-clock time, as
	// offsets from the tracker's wall epoch. They are populated only
	// when the tracker's wall clock is enabled (a wall-clocked backend
	// is in use); both zero means "not stamped".
	WallStart, WallEnd time.Duration
	// Attrs are the span's key/value annotations.
	Attrs []Attr

	t    *Tracker
	open bool
}

// Duration returns the span's length in virtual time.
func (s *Span) Duration() sim.Duration {
	if s == nil || s.End < s.Start {
		return 0
	}
	return sim.Duration(s.End - s.Start)
}

// HasWall reports whether the span carries wall-clock stamps.
func (s *Span) HasWall() bool {
	return s != nil && (s.WallStart != 0 || s.WallEnd != 0)
}

// WallDuration returns the span's wall-clock length, or 0 when the
// span was never wall-stamped (virtual-only backend).
func (s *Span) WallDuration() time.Duration {
	if !s.HasWall() || s.WallEnd < s.WallStart {
		return 0
	}
	return s.WallEnd - s.WallStart
}

// Close ends the span at p's current virtual time. Children still open
// on the same process (skipped by an error path) are closed first.
// Nil-safe and idempotent.
func (s *Span) Close(p *sim.Proc) {
	if s == nil || !s.open {
		return
	}
	now := p.Now()
	wall := s.t.wallNow()
	stack := s.t.active[p]
	for i := len(stack) - 1; i >= 0; i-- {
		sp := stack[i]
		sp.End = now
		sp.WallEnd = wall
		sp.open = false
		s.t.flight.RecordV(now, "span-close", sp.Name, sp.Proc)
		if sp == s {
			s.t.active[p] = stack[:i]
			return
		}
	}
	// Closed from a process other than the opener: end it alone.
	s.End = now
	s.WallEnd = wall
	s.open = false
	s.t.flight.RecordV(now, "span-close", s.Name, s.Proc)
}

// Tracker is the one recorder of a run: it holds the phase spans and
// the device events stamped with them. The simulation kernel runs one
// process at a time, so no locking is needed; a nil *Tracker records
// nothing.
type Tracker struct {
	nextID int64
	spans  []*Span
	active map[*sim.Proc][]*Span
	events []Event

	wallOn    bool
	wallEpoch time.Time
	flight    *FlightRecorder
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{active: map[*sim.Proc][]*Span{}}
}

// EnableWallClock turns on wall-clock span stamping: every span opened
// or closed from now on carries WallStart/WallEnd as offsets from the
// epoch set here (the first call; later calls are no-ops). Callers
// enable it exactly when the backend is wall-clocked, so virtual-only
// runs keep zero wall fields. Nil-safe.
func (t *Tracker) EnableWallClock() {
	if t == nil || t.wallOn {
		return
	}
	t.wallOn = true
	t.wallEpoch = time.Now()
}

// SetFlight routes span open/close events into a flight recorder.
// Nil-safe on both sides.
func (t *Tracker) SetFlight(f *FlightRecorder) {
	if t == nil {
		return
	}
	t.flight = f
}

// wallNow returns the wall offset to stamp now, or 0 when disabled.
func (t *Tracker) wallNow() time.Duration {
	if t == nil || !t.wallOn {
		return 0
	}
	return time.Since(t.wallEpoch)
}

// Begin opens a span named name on process p at the current virtual
// time. The innermost open span on p becomes its parent. Nil-safe:
// returns nil (whose Close is a no-op) on a nil tracker.
func (t *Tracker) Begin(p *sim.Proc, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.nextID++
	s := &Span{
		ID: t.nextID, Name: name, Proc: p.Name(),
		Start: p.Now(), WallStart: t.wallNow(), Attrs: attrs,
		t: t, open: true,
	}
	if stack := t.active[p]; len(stack) > 0 {
		s.Parent = stack[len(stack)-1].ID
	}
	t.active[p] = append(t.active[p], s)
	t.spans = append(t.spans, s)
	t.flight.RecordV(s.Start, "span-open", name, s.Proc)
	return s
}

// ActiveSpan returns the innermost open span's ID on process p, or 0.
// Record stamps device events with it; callers that hand work to
// helper tasks capture it for the helpers' events.
func (t *Tracker) ActiveSpan(p *sim.Proc) int64 {
	if t == nil {
		return 0
	}
	stack := t.active[p]
	if len(stack) == 0 {
		return 0
	}
	return stack[len(stack)-1].ID
}

// Finish closes every span still open at virtual time now — a safety
// net for error paths that unwound past their Close calls. Nil-safe.
func (t *Tracker) Finish(now sim.Time) {
	if t == nil {
		return
	}
	wall := t.wallNow()
	for _, s := range t.spans {
		if s.open {
			s.End = now
			s.WallEnd = wall
			s.open = false
		}
	}
	t.active = map[*sim.Proc][]*Span{}
}

// Spans returns every span recorded so far, in open order.
func (t *Tracker) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans
}
