package obs

import (
	"sort"
	"time"

	"repro/internal/sim"
)

// DeviceBusy is one device's contribution to a phase: merged busy time
// and blocks moved.
type DeviceBusy struct {
	Device string
	Busy   sim.Duration
	Blocks int64
}

// PhaseStat is the critical-path summary of one phase (all top-level
// spans sharing a name, plus their descendants' device events).
type PhaseStat struct {
	// Name is the phase name ("TOTAL" for the whole-run row).
	Name string
	// Count is the number of top-level spans aggregated.
	Count int
	// Wall is the union of the phase's span intervals — elapsed
	// virtual time during which the phase was active somewhere.
	Wall sim.Duration
	// RealWall is the union of the phase's wall-clock span intervals —
	// elapsed real time the phase was active. Zero unless the run was
	// wall-clocked (file backend), when it exposes per-phase real
	// overlap rather than only the per-run total.
	RealWall time.Duration
	// Busy lists per-device merged busy time, sorted by device.
	Busy []DeviceBusy
	// Bottleneck is the device with the most busy time; BottleneckBusy
	// its merged busy time.
	Bottleneck     string
	BottleneckBusy sim.Duration
	// Overlap is the fraction of total device busy time that ran
	// concurrently with another device: (Σ busy − union)/Σ busy.
	// 0 means strictly sequential device use; the paper's concurrent
	// methods push it up.
	Overlap float64
}

// Report is the output of Analyze: a whole-run row plus per-phase
// rows in first-execution order.
type Report struct {
	Total  PhaseStat
	Phases []PhaseStat
}

type interval struct{ s, t sim.Time }

// mergeIntervals sorts and coalesces overlapping intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].s != ivs[j].s {
			return ivs[i].s < ivs[j].s
		}
		return ivs[i].t < ivs[j].t
	})
	out := ivs[:1]
	for _, v := range ivs[1:] {
		last := &out[len(out)-1]
		if v.s <= last.t {
			if v.t > last.t {
				last.t = v.t
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

func totalDur(ivs []interval) sim.Duration {
	var d sim.Duration
	for _, v := range ivs {
		d += sim.Duration(v.t - v.s)
	}
	return d
}

// statFor summarizes one set of device events plus the wall intervals
// they are judged against.
func statFor(name string, count int, wall []interval, events []Event) PhaseStat {
	st := PhaseStat{Name: name, Count: count, Wall: totalDur(mergeIntervals(wall))}
	perDev := map[string][]interval{}
	blocks := map[string]int64{}
	var all []interval
	for _, e := range events {
		if e.Device == "-" || e.End <= e.Start {
			continue
		}
		iv := interval{e.Start, e.End}
		perDev[e.Device] = append(perDev[e.Device], iv)
		all = append(all, iv)
		blocks[e.Device] += e.Blocks
	}
	devs := make([]string, 0, len(perDev))
	for d := range perDev {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	var sum sim.Duration
	for _, d := range devs {
		busy := totalDur(mergeIntervals(perDev[d]))
		sum += busy
		st.Busy = append(st.Busy, DeviceBusy{Device: d, Busy: busy, Blocks: blocks[d]})
		if busy > st.BottleneckBusy {
			st.Bottleneck = d
			st.BottleneckBusy = busy
		}
	}
	if sum > 0 {
		union := totalDur(mergeIntervals(all))
		st.Overlap = float64(sum-union) / float64(sum)
	}
	return st
}

// Analyze walks spans and device events and reports, per phase, the
// bottleneck device and the overlap fraction. Phases are top-level
// spans (Parent == 0) grouped by name; a phase owns the device events
// stamped with its spans or any of their descendants. The Total row
// covers every device event against the whole run [0, end].
func Analyze(spans []*Span, events []Event, end sim.Time) *Report {
	r := &Report{Total: statFor("TOTAL", 0, []interval{{0, end}}, events)}

	// Map every span to its top-level ancestor.
	byID := map[int64]*Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	top := map[int64]int64{} // span ID -> top-level ancestor ID
	var rootOf func(id int64) int64
	rootOf = func(id int64) int64 {
		if t, ok := top[id]; ok {
			return t
		}
		s := byID[id]
		if s == nil {
			return 0
		}
		t := s.ID
		if s.Parent != 0 {
			t = rootOf(s.Parent)
		}
		top[id] = t
		return t
	}

	// Group top-level spans by name, in first-open order.
	groupOf := map[int64]int{} // top-level span ID -> group index
	var order []string
	groupIdx := map[string]int{}
	wall := map[int][]interval{}
	realWall := map[int][]interval{} // wall-clock ns, reusing interval
	var realAll []interval
	counts := map[int]int{}
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		gi, ok := groupIdx[s.Name]
		if !ok {
			gi = len(order)
			groupIdx[s.Name] = gi
			order = append(order, s.Name)
		}
		groupOf[s.ID] = gi
		end := s.End
		if end < s.Start {
			end = s.Start
		}
		wall[gi] = append(wall[gi], interval{s.Start, end})
		if s.HasWall() && s.WallEnd >= s.WallStart {
			iv := interval{sim.Time(s.WallStart), sim.Time(s.WallEnd)}
			realWall[gi] = append(realWall[gi], iv)
			realAll = append(realAll, iv)
		}
		counts[gi]++
	}
	r.Total.RealWall = time.Duration(totalDur(mergeIntervals(realAll)))

	byGroup := map[int][]Event{}
	for _, e := range events {
		if e.Span == 0 {
			continue
		}
		gi, ok := groupOf[rootOf(e.Span)]
		if !ok {
			continue
		}
		byGroup[gi] = append(byGroup[gi], e)
	}

	for gi, name := range order {
		st := statFor(name, counts[gi], wall[gi], byGroup[gi])
		st.RealWall = time.Duration(totalDur(mergeIntervals(realWall[gi])))
		r.Phases = append(r.Phases, st)
	}
	return r
}
