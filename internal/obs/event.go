package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a device event.
type Kind int

// Event kinds.
const (
	TapeRead Kind = iota
	TapeWrite
	TapeSeek
	TapeExchange
	DiskRead
	DiskWrite
	Fault   // an injected fault or device stall hit the run
	Retry   // recovery work: backoff and re-reads after a fault
	Degrade // a permanent device loss forced a re-plan
)

func (k Kind) String() string {
	switch k {
	case TapeRead:
		return "tape-read"
	case TapeWrite:
		return "tape-write"
	case TapeSeek:
		return "tape-seek"
	case TapeExchange:
		return "tape-exchange"
	case DiskRead:
		return "disk-read"
	case DiskWrite:
		return "disk-write"
	case Fault:
		return "fault"
	case Retry:
		return "retry"
	case Degrade:
		return "degrade"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// glyph is the timeline character for the kind.
func (k Kind) glyph() byte {
	switch k {
	case TapeRead, DiskRead:
		return 'r'
	case TapeWrite, DiskWrite:
		return 'w'
	case TapeSeek:
		return 's'
	case TapeExchange:
		return 'x'
	case Fault:
		return '!'
	case Retry:
		return '~'
	case Degrade:
		return 'X'
	}
	return '|'
}

// Event is one device activity interval. Device "-" marks run-level
// events (unit restarts, degrade re-plans) that belong to no device.
type Event struct {
	// Device names the device, e.g. "tape:R" or "disk0".
	Device string
	// Kind classifies the activity.
	Kind Kind
	// Start and End bound the interval in virtual time.
	Start, End sim.Time
	// Blocks is the transfer size, when applicable.
	Blocks int64
	// Span is the ID of the phase span that issued the event, or 0
	// when unattributed.
	Span int64
	// Note annotates the event.
	Note string
}

// Duration returns the event's length.
func (e Event) Duration() sim.Duration { return sim.Duration(e.End - e.Start) }

// Record appends a device event issued by process p, stamping it with
// p's active phase span unless it already carries one. Nil-safe, so
// devices record unconditionally.
func (t *Tracker) Record(p *sim.Proc, e Event) {
	if t == nil {
		return
	}
	if e.Span == 0 {
		e.Span = t.ActiveSpan(p)
	}
	t.events = append(t.events, e)
}

// Events returns every device event recorded so far, in record order.
func (t *Tracker) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// devices returns the distinct device names of events, sorted.
func devices(events []Event) []string {
	set := map[string]bool{}
	for _, e := range events {
		set[e.Device] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// busyTime returns the device's total busy time. Overlapping events —
// a retry backoff spanning the stalled read it re-issues — are merged
// before summing, so busy time never exceeds wall-clock time.
func busyTime(events []Event, device string) sim.Duration {
	var ivs []interval
	for _, e := range events {
		if e.Device == device && e.End > e.Start {
			ivs = append(ivs, interval{e.Start, e.End})
		}
	}
	return totalDur(mergeIntervals(ivs))
}

// Timeline renders events as a text Gantt chart of width columns
// spanning [0, end]: one row per device, 'r' for reads, 'w' for
// writes, 's' for seeks, 'x' for media exchanges, '.' for idle. When
// multiple kinds land in one cell the busiest kind wins. Activity past
// end is clamped into the last cell, and instantaneous events
// (Start == End, e.g. fault markers) get a one-cell glyph.
func Timeline(events []Event, end sim.Time, width int) string {
	if len(events) == 0 || end <= 0 || width < 1 {
		return ""
	}
	devs := devices(events)
	cell := float64(end) / float64(width)

	var b strings.Builder
	nameW := 0
	for _, d := range devs {
		nameW = max(nameW, len(d))
	}
	for _, dev := range devs {
		// Accumulate busy time per (cell, kind).
		weights := make([]map[Kind]float64, width)
		add := func(c int, k Kind, w float64) {
			if weights[c] == nil {
				weights[c] = make(map[Kind]float64)
			}
			weights[c][k] += w
		}
		for _, e := range events {
			if e.Device != dev {
				continue
			}
			s, t := float64(e.Start), float64(e.End)
			s = min(max(s, 0), float64(end))
			t = min(max(t, s), float64(end))
			first := min(int(s/cell), width-1)
			if t <= s {
				// Instantaneous (or entirely past end): a full-cell
				// weight so the glyph renders and outranks partial
				// occupants of the cell.
				add(first, e.Kind, cell)
				continue
			}
			last := min(int(t/cell), width-1)
			for c := first; c <= last; c++ {
				lo := float64(c) * cell
				hi := lo + cell
				ov := min(t, hi) - max(s, lo)
				if ov <= 0 {
					continue
				}
				add(c, e.Kind, ov)
			}
		}
		row := make([]byte, width)
		for c := range row {
			row[c] = '.'
			var best float64
			// Fixed descending kind order keeps ties deterministic and
			// lets fault/retry/degrade glyphs win them.
			for k := Degrade; k >= TapeRead; k-- {
				if w := weights[c][k]; w > best {
					best = w
					row[c] = k.glyph()
				}
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, dev, row)
	}
	fmt.Fprintf(&b, "%-*s  0%*s\n", nameW, "", width, end.String())
	return b.String()
}

// DeviceSummary aggregates per-device, per-kind busy time of events
// over a run of length end.
func DeviceSummary(events []Event, end sim.Time) string {
	var b strings.Builder
	for _, dev := range devices(events) {
		perKind := map[Kind]sim.Duration{}
		var kinds []Kind
		for _, e := range events {
			if e.Device != dev {
				continue
			}
			if _, ok := perKind[e.Kind]; !ok {
				kinds = append(kinds, e.Kind)
			}
			perKind[e.Kind] += e.Duration()
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		busy := busyTime(events, dev)
		fmt.Fprintf(&b, "%-8s busy %6.1f%%", dev, 100*float64(busy)/float64(end))
		for _, k := range kinds {
			fmt.Fprintf(&b, "  %s %.0fs", k, perKind[k].Seconds())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
