package obs

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func secs(s int) sim.Time { return sim.Time(time.Duration(s) * time.Second) }

func TestTrackerSpanTree(t *testing.T) {
	k := sim.NewKernel()
	tr := NewTracker()
	k.Spawn("worker", func(p *sim.Proc) {
		a := tr.Begin(p, "outer", A("k", "v"))
		if tr.ActiveSpan(p) != a.ID {
			t.Errorf("active = %d, want %d", tr.ActiveSpan(p), a.ID)
		}
		p.Hold(sim.Duration(2 * time.Second))
		b := tr.Begin(p, "inner")
		if b.Parent != a.ID {
			t.Errorf("inner parent = %d, want %d", b.Parent, a.ID)
		}
		p.Hold(sim.Duration(3 * time.Second))
		b.Close(p)
		b.Close(p) // idempotent
		p.Hold(sim.Duration(1 * time.Second))
		a.Close(p)
		if tr.ActiveSpan(p) != 0 {
			t.Errorf("active after close = %d", tr.ActiveSpan(p))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	a, b := spans[0], spans[1]
	if a.Name != "outer" || a.Start != 0 || a.End != secs(6) || a.Parent != 0 {
		t.Errorf("outer = %+v", a)
	}
	if b.Name != "inner" || b.Start != secs(2) || b.End != secs(5) {
		t.Errorf("inner = %+v", b)
	}
	if a.Duration() != sim.Duration(6*time.Second) {
		t.Errorf("outer duration = %v", a.Duration())
	}
	if len(a.Attrs) != 1 || a.Attrs[0] != A("k", "v") {
		t.Errorf("outer attrs = %v", a.Attrs)
	}
}

func TestSpanCloseUnwindsSkippedChildren(t *testing.T) {
	k := sim.NewKernel()
	tr := NewTracker()
	k.Spawn("worker", func(p *sim.Proc) {
		outer := tr.Begin(p, "outer")
		tr.Begin(p, "leaked") // an error path never closes this
		p.Hold(sim.Duration(4 * time.Second))
		outer.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Spans() {
		if s.End != secs(4) {
			t.Errorf("%s end = %v, want 4s", s.Name, s.End)
		}
	}
}

func TestTrackerFinishClosesStragglers(t *testing.T) {
	k := sim.NewKernel()
	tr := NewTracker()
	k.Spawn("worker", func(p *sim.Proc) {
		tr.Begin(p, "abandoned")
		p.Hold(sim.Duration(time.Second))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Finish(secs(7))
	if s := tr.Spans()[0]; s.End != secs(7) {
		t.Errorf("end = %v, want 7s", s.End)
	}
}

func TestNilObservabilityIsSafe(t *testing.T) {
	var tr *Tracker
	k := sim.NewKernel()
	k.Spawn("worker", func(p *sim.Proc) {
		s := tr.Begin(p, "x")
		s.Close(p)
		if tr.ActiveSpan(p) != 0 || s.Duration() != 0 {
			t.Error("nil tracker should observe nothing")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Finish(0)
	if tr.Spans() != nil {
		t.Error("nil tracker has spans")
	}

	var reg *Registry
	c := reg.Counter("c", "help")
	g := reg.Gauge("g", "help")
	h := reg.Histogram("h", "help", DeviceLatencyBuckets)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil registry handles should observe nothing")
	}
	if reg.Exposition() != "" {
		t.Error("nil registry exposition should be empty")
	}
}
