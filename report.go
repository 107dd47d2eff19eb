package tapejoin

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// DeviceBusyReport is one device's contribution to a phase.
type DeviceBusyReport struct {
	// Device names the device ("R", "S", "disk0", ...).
	Device string
	// Busy is the device's busy time within the phase, with
	// overlapping requests merged (never exceeds the phase wall time).
	Busy time.Duration
	// Blocks counts blocks moved by the device within the phase.
	Blocks int64
}

// PhaseReport is the critical-path analysis of one join phase: all
// top-level spans sharing a name ("copy-R", "stage-S", "join-chunk",
// ...) and every device event attributed to them.
type PhaseReport struct {
	// Name is the phase (span) name.
	Name string
	// Count is the number of span instances merged into this phase.
	Count int
	// Wall is the summed wall-clock time of the phase's spans
	// (overlapping instances merged).
	Wall time.Duration
	// RealWall is the phase's real elapsed time (union of its spans'
	// wall-clock intervals). Zero on the "sim" backend; measured on the
	// "file" backend, where comparing it to Wall shows how modeled and
	// real time diverge per phase.
	RealWall time.Duration
	// Busy breaks the phase down by device, busiest first.
	Busy []DeviceBusyReport
	// Bottleneck is the busiest device — the phase's critical path.
	Bottleneck string
	// BottleneckBusy is the bottleneck device's busy time.
	BottleneckBusy time.Duration
	// Overlap is the fraction of device busy time hidden behind other
	// devices: 0 when devices take strict turns, approaching 1 when
	// they run fully in parallel. Concurrent methods should report
	// measurably higher overlap than their sequential counterparts.
	Overlap float64
}

// Report is the structured observability output of a Join run on a
// system configured with Observe.
type Report struct {
	// Total analyzes the whole run across all phases.
	Total PhaseReport
	// Phases lists per-phase analyses in first-execution order.
	Phases []PhaseReport

	spans  []*obs.Span
	events []obs.Event
	reg    *obs.Registry
	end    sim.Time
}

func toPhaseReport(s obs.PhaseStat) PhaseReport {
	out := PhaseReport{
		Name:           s.Name,
		Count:          s.Count,
		Wall:           time.Duration(s.Wall),
		RealWall:       s.RealWall,
		Bottleneck:     s.Bottleneck,
		BottleneckBusy: time.Duration(s.BottleneckBusy),
		Overlap:        s.Overlap,
	}
	for _, b := range s.Busy {
		out.Busy = append(out.Busy, DeviceBusyReport{
			Device: b.Device,
			Busy:   time.Duration(b.Busy),
			Blocks: b.Blocks,
		})
	}
	sort.SliceStable(out.Busy, func(i, j int) bool { return out.Busy[i].Busy > out.Busy[j].Busy })
	return out
}

func newReport(tr *obs.Tracker, reg *obs.Registry, end sim.Time) *Report {
	spans, events := tr.Spans(), tr.Events()
	a := obs.Analyze(spans, events, end)
	r := &Report{
		Total:  toPhaseReport(a.Total),
		spans:  spans,
		events: events,
		reg:    reg,
		end:    end,
	}
	for _, ph := range a.Phases {
		r.Phases = append(r.Phases, toPhaseReport(ph))
	}
	return r
}

// ChromeTrace renders the run as Chrome trace_event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: one track per
// device, one per process span stack, slices for spans and device
// requests, instants for faults and marks.
func (r *Report) ChromeTrace() ([]byte, error) {
	return obs.ChromeTrace(r.spans, r.events)
}

// WriteJSONL streams the run as JSON Lines: one span or device event
// per line, timestamps in virtual seconds.
func (r *Report) WriteJSONL(w io.Writer) error {
	return obs.WriteJSONL(w, r.spans, r.events)
}

// Timeline renders the run's device activity as a text Gantt chart,
// one row per device, 100 columns wide.
func (r *Report) Timeline() string { return obs.Timeline(r.events, r.end, 100) }

// DeviceSummary renders the per-device, per-kind busy breakdown.
func (r *Report) DeviceSummary() string { return obs.DeviceSummary(r.events, r.end) }

// MetricsText renders the metrics registry in Prometheus text
// exposition format.
func (r *Report) MetricsText() string { return r.reg.Exposition() }

// MetricsJSON renders the metrics registry as a JSON document.
func (r *Report) MetricsJSON() ([]byte, error) { return r.reg.JSON() }

// String renders the per-phase table: wall time, bottleneck device,
// and overlap fraction per phase, with the whole-run total first. A
// wall-clocked (file backend) run gains a "real" column: the phase's
// measured elapsed time alongside its modeled virtual time.
func (r *Report) String() string {
	real := r.Total.RealWall > 0
	var b strings.Builder
	if real {
		fmt.Fprintf(&b, "%-14s %5s %10s %10s %10s %-6s %7s\n",
			"phase", "count", "wall", "real", "busy", "dev", "overlap")
	} else {
		fmt.Fprintf(&b, "%-14s %5s %10s %10s %-6s %7s\n",
			"phase", "count", "wall", "busy", "dev", "overlap")
	}
	row := func(p PhaseReport) {
		if real {
			fmt.Fprintf(&b, "%-14s %5d %10s %10s %10s %-6s %6.1f%%\n",
				p.Name, p.Count, fmtDur(p.Wall), fmtDur(p.RealWall),
				fmtDur(p.BottleneckBusy), p.Bottleneck, p.Overlap*100)
		} else {
			fmt.Fprintf(&b, "%-14s %5d %10s %10s %-6s %6.1f%%\n",
				p.Name, p.Count, fmtDur(p.Wall), fmtDur(p.BottleneckBusy),
				p.Bottleneck, p.Overlap*100)
		}
	}
	row(r.Total)
	for _, p := range r.Phases {
		row(p)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}
