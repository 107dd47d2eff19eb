package ioengine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestDoChargesAndReturns(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	w := e.Worker("disk")
	defer w.Close()
	k.Spawn("p", func(p *sim.Proc) {
		d, err := w.Do(p, func() error { time.Sleep(3 * time.Millisecond); return nil })
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		if d < 3*time.Millisecond {
			t.Errorf("measured %v, want >= 3ms", d)
		}
		if sim.Duration(p.Now()) != d {
			t.Errorf("virtual now %v != measured %v", p.Now(), d)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.WallStats()
	if len(st.PerDevice) != 1 || st.PerDevice[0].Device != "disk" || st.PerDevice[0].Busy < 3*time.Millisecond {
		t.Errorf("WallStats = %+v", st)
	}
}

func TestTwoWorkersOverlap(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	wa, wb := e.Worker("tape:R"), e.Worker("disk")
	defer wa.Close()
	defer wb.Close()
	const d = 30 * time.Millisecond
	spawn := func(w *Worker) {
		k.Spawn(w.Name(), func(p *sim.Proc) {
			if _, err := w.Do(p, func() error { time.Sleep(d); return nil }); err != nil {
				t.Errorf("%s: %v", w.Name(), err)
			}
		})
	}
	spawn(wa)
	spawn(wb)
	t0 := time.Now()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(t0); wall > 2*d-5*time.Millisecond {
		t.Errorf("wall %v: workers did not overlap", wall)
	}
	st := e.WallStats()
	if st.Overlap() <= 0.2 {
		t.Errorf("wall overlap %.2f (busy %v union %v), want clearly > 0", st.Overlap(), st.Busy, st.Union)
	}
}

func TestSameWorkerSerializesFIFO(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	w := e.Worker("tape:S")
	defer w.Close()
	var order []int
	k.Spawn("p", func(p *sim.Proc) {
		// Split-phase: two submissions in flight on one worker must
		// execute in submission order.
		c1 := w.Submit(p, func() error { order = append(order, 1); return nil })
		c2 := w.Submit(p, func() error { order = append(order, 2); return nil })
		if _, err := w.Await(p, c1); err != nil {
			t.Error(err)
		}
		if _, err := w.Await(p, c2); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("execution order %v, want [1 2]", order)
	}
}

func TestErrorAndClosedWorker(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	w := e.Worker("disk")
	boom := errors.New("boom")
	k.Spawn("p", func(p *sim.Proc) {
		if _, err := w.Do(p, func() error { return boom }); !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
		w.Close()
		w.Close() // idempotent
		if _, err := w.Do(p, func() error { return nil }); !errors.Is(err, ErrClosed) {
			t.Errorf("err after close = %v, want ErrClosed", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDepthGauge(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	reg := obs.NewRegistry()
	w := e.Worker("disk")
	defer w.Close()
	w.SetMetrics(reg)
	gate := make(chan struct{})
	k.Spawn("p", func(p *sim.Proc) {
		c := w.Submit(p, func() error { <-gate; return nil })
		if v := reg.Gauge("iodev_queue_depth", "", obs.A("device", "disk")).Value(); v != 1 {
			t.Errorf("gauge during flight = %v, want 1", v)
		}
		close(gate)
		if _, err := w.Await(p, c); err != nil {
			t.Error(err)
		}
		if v := reg.Gauge("iodev_queue_depth", "", obs.A("device", "disk")).Value(); v != 0 {
			t.Errorf("gauge after await = %v, want 0", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	e.PublishMetrics(reg)
	if v := reg.Gauge("iodev_wall_busy_seconds", "", obs.A("device", "disk")).Value(); v <= 0 {
		t.Errorf("published wall busy = %v, want > 0", v)
	}
}

func TestMergedTotal(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	got := mergedTotal([]wallInterval{
		{ms(0), ms(10)}, {ms(5), ms(15)}, {ms(20), ms(30)}, {ms(30), ms(31)},
	})
	if got != ms(26) {
		t.Errorf("mergedTotal = %v, want 26ms", got)
	}
	if mergedTotal(nil) != 0 {
		t.Error("empty mergedTotal != 0")
	}
}
