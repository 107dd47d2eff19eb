package fault

import (
	"repro/internal/obs"
)

// instrumented wraps a Schedule, counting its decisions by the kind
// that fired in an obs.Registry and recording injected stall durations.
type instrumented struct {
	inner  *Schedule
	flight *obs.FlightRecorder

	ok    *obs.Counter
	fired map[*kind]*obs.Counter

	stallSeconds *obs.Histogram
}

// Instrument wraps s so every decision is counted in reg under
// fault_decisions_total{outcome=...} — "ok" for a clean device-level
// verdict, else the label of each kind that fired — and stall durations
// land in a fault_stall_seconds histogram; fired kinds are additionally
// recorded in flight (which may be nil). Returns s unchanged when reg is
// nil, and a nil Injector when s is nil.
func Instrument(s *Schedule, reg *obs.Registry, flight *obs.FlightRecorder) Injector {
	if s == nil {
		return nil
	}
	if reg == nil {
		return s
	}
	c := func(outcome string) *obs.Counter {
		return reg.Counter("fault_decisions_total",
			"Fault-injector decisions by outcome.", obs.A("outcome", outcome))
	}
	i := &instrumented{inner: s, flight: flight, ok: c("ok"), fired: make(map[*kind]*obs.Counter, len(kinds))}
	for _, k := range kinds {
		i.fired[k] = c(k.label)
	}
	i.stallSeconds = reg.Histogram("fault_stall_seconds",
		"Injected device stall durations.", obs.BackoffBuckets)
	return i
}

// Decide implements Injector.
func (i *instrumented) Decide(op Op) Decision {
	d := i.inner.Decide(op)
	if d.kind == nil {
		i.ok.Inc()
	} else {
		i.count(op, d.kind)
	}
	if d.OS.kind != nil {
		i.count(op, d.OS.kind)
	}
	if d.Stall > 0 {
		i.stallSeconds.Observe(d.Stall.Seconds())
	}
	return d
}

func (i *instrumented) count(op Op, k *kind) {
	i.fired[k].Inc()
	i.flight.Record("fault", op.Device, k.label)
}
