package ioengine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// deadlineEngine returns an engine with a short deadline, no retries,
// and a short grace, so health transitions are fast to provoke.
func deadlineEngine(timeout, grace time.Duration, trip int) *Engine {
	e := New(0)
	e.SetPolicy(Policy{OpTimeout: timeout, Grace: grace, TripAfter: trip,
		Retry: RetryPolicy{Max: 0, Base: 1}})
	return e
}

func TestDeadlinePostsTypedTimeout(t *testing.T) {
	e := deadlineEngine(10*time.Millisecond, 200*time.Millisecond, 3)
	k := sim.NewKernel()
	w := e.Worker("disk")
	defer w.Close()
	k.Spawn("p", func(p *sim.Proc) {
		_, err := w.Do(p, func() error { time.Sleep(40 * time.Millisecond); return nil })
		if !errors.Is(err, fault.ErrTimeout) {
			t.Errorf("want ErrTimeout, got %v", err)
		}
		if h := w.Health(); h != Degraded {
			t.Errorf("health after one miss = %v, want degraded", h)
		}
		if w.Timeouts() != 1 {
			t.Errorf("timeouts = %d, want 1", w.Timeouts())
		}
		// A completed op heals a degraded worker.
		if _, err := w.Do(p, func() error { return nil }); err != nil {
			t.Errorf("fast op after heal: %v", err)
		}
		if h := w.Health(); h != Healthy {
			t.Errorf("health after success = %v, want healthy", h)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakerTripsAfterConsecutiveTimeouts(t *testing.T) {
	e := deadlineEngine(5*time.Millisecond, 500*time.Millisecond, 2)
	k := sim.NewKernel()
	w := e.Worker("disk")
	defer w.Close()
	slow := func() error { time.Sleep(25 * time.Millisecond); return nil }
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, err := w.Do(p, slow); !errors.Is(err, fault.ErrTimeout) {
				t.Errorf("miss %d: want ErrTimeout, got %v", i, err)
			}
		}
		if h := w.Health(); h != Failed {
			t.Errorf("health after %d misses = %v, want failed", 2, h)
		}
		// Breaker open: submissions fail fast with a typed error and
		// never reach the device.
		ran := false
		if _, err := w.Do(p, func() error { ran = true; return nil }); !errors.Is(err, fault.ErrDeviceFailed) {
			t.Errorf("want ErrDeviceFailed, got %v", err)
		}
		if ran {
			t.Error("op executed on a failed device")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGraceExpiryTripsBreaker(t *testing.T) {
	e := deadlineEngine(5*time.Millisecond, 20*time.Millisecond, 100)
	k := sim.NewKernel()
	w := e.Worker("disk")
	defer w.Close()
	release := make(chan struct{})
	k.Spawn("p", func(p *sim.Proc) {
		_, err := w.Do(p, func() error { <-release; return nil })
		if !errors.Is(err, fault.ErrTimeout) {
			t.Errorf("want ErrTimeout, got %v", err)
		}
		// The zombie outlives the grace period: one stuck op is enough
		// to fail the device even below the trip count.
		deadline := time.Now().Add(2 * time.Second)
		for w.Health() != Failed && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if h := w.Health(); h != Failed {
			t.Errorf("health after grace expiry = %v, want failed", h)
		}
		close(release)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoRetriesTransientAndTimeout(t *testing.T) {
	e := New(0)
	e.SetPolicy(Policy{OpTimeout: 10 * time.Millisecond, Grace: 200 * time.Millisecond,
		TripAfter: 5, Retry: RetryPolicy{Max: 3, Base: sim.Duration(time.Millisecond)}})
	k := sim.NewKernel()
	w := e.Worker("disk")
	defer w.Close()
	k.Spawn("p", func(p *sim.Proc) {
		// Two transient failures, then success: Do's device-layer
		// retries absorb them.
		calls := 0
		_, err := w.Do(p, func() error {
			calls++
			if calls <= 2 {
				return fmt.Errorf("flaky: %w", fault.ErrTransient)
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Errorf("transient retry: err=%v calls=%d, want nil/3", err, calls)
		}
		if w.Retries() != 2 {
			t.Errorf("retries = %d, want 2", w.Retries())
		}
		// One stall past the deadline, then fast: the timeout is
		// retried too, and the device heals.
		stalls := 0
		_, err = w.Do(p, func() error {
			stalls++
			if stalls == 1 {
				time.Sleep(30 * time.Millisecond)
			}
			return nil
		})
		if err != nil || stalls != 2 {
			t.Errorf("timeout retry: err=%v stalls=%d, want nil/2", err, stalls)
		}
		if h := w.Health(); h != Healthy {
			t.Errorf("health after recovery = %v, want healthy", h)
		}
		// Hard errors are not retried.
		boom := errors.New("hard failure")
		calls = 0
		if _, err := w.Do(p, func() error { calls++; return boom }); !errors.Is(err, boom) || calls != 1 {
			t.Errorf("hard error: err=%v calls=%d, want boom/1", err, calls)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitOnClosedWorkerTyped(t *testing.T) {
	e := New(0)
	k := sim.NewKernel()
	w := e.Worker("tape:R")
	reg := obs.NewRegistry()
	w.SetMetrics(reg)
	k.Spawn("p", func(p *sim.Proc) {
		w.Close()
		c := w.Submit(p, func() error { return nil })
		if _, err := w.Await(p, c); !errors.Is(err, ErrClosed) {
			t.Errorf("want typed ErrClosed, got %v", err)
		}
		// The fast-failed submission was never enqueued: the queue
		// gauge must not go negative.
		if v := reg.Gauge("iodev_queue_depth", "", obs.A("device", "tape:R")).Value(); v != 0 {
			t.Errorf("queue gauge after closed submit = %v, want 0", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHealthMetricsPublished(t *testing.T) {
	e := deadlineEngine(5*time.Millisecond, 500*time.Millisecond, 2)
	k := sim.NewKernel()
	reg := obs.NewRegistry()
	w := e.Worker("disk")
	defer w.Close()
	w.SetMetrics(reg)
	k.Spawn("p", func(p *sim.Proc) {
		w.Do(p, func() error { time.Sleep(20 * time.Millisecond); return nil })
		if v := reg.Gauge("iodev_health", "", obs.A("device", "disk")).Value(); v != float64(Degraded) {
			t.Errorf("iodev_health = %v, want %d (degraded)", v, Degraded)
		}
		if v := reg.Counter("iodev_timeouts_total", "", obs.A("device", "disk")).Value(); v != 1 {
			t.Errorf("iodev_timeouts_total = %v, want 1", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{Healthy: "healthy", Degraded: "degraded", Failed: "failed"} {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", h, h.String(), want)
		}
	}
}
