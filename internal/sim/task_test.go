package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// sleeper is a task that holds d, then unparks parent if it is the
// last of *pending to finish.
type sleeper struct {
	d       Duration
	started bool
	pending *int
	parent  *Proc
	ends    *[]Time
}

func (s *sleeper) Step(p *Proc) bool {
	if !s.started {
		s.started = true
		p.WakeAfter(s.d)
		return false
	}
	*s.ends = append(*s.ends, p.Now())
	if *s.pending--; *s.pending == 0 {
		s.parent.Unpark()
	}
	return true
}

func TestTasksOverlapAndLastOneUnparks(t *testing.T) {
	k := NewKernel()
	var ends []Time
	var woke Time
	k.Spawn("parent", func(p *Proc) {
		pending := 3
		for _, d := range []Duration{2 * time.Second, 5 * time.Second, time.Second} {
			k.SpawnTask("sleeper", &sleeper{d: d, pending: &pending, parent: p, ends: &ends})
		}
		p.Park("sleepers")
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*time.Second) {
		t.Fatalf("parent woke at %v, want 5s", woke)
	}
	if len(ends) != 3 || ends[0] != Time(time.Second) || ends[2] != Time(5*time.Second) {
		t.Fatalf("task ends %v", ends)
	}
}

type panicky struct{}

func (panicky) Step(*Proc) bool { panic("task boom") }

func TestTaskPanicIsCapturedAsError(t *testing.T) {
	k := NewKernel()
	task := k.SpawnTask("bad", panicky{})
	k.Spawn("waiter", func(p *Proc) {
		if err := p.Wait(task); err == nil || !strings.Contains(err.Error(), "task boom") {
			t.Errorf("Wait err = %v, want the task's panic", err)
		}
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "task boom") {
		t.Fatalf("Run err = %v, want task boom", err)
	}
}

// TestEarlyFailureSurvivesPruning: the process list drops finished
// procs as it fills, but keeps failed ones for Run's error.
func TestEarlyFailureSurvivesPruning(t *testing.T) {
	k := NewKernel()
	k.SpawnTask("bad", panicky{})
	k.Spawn("spawner", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			k.SpawnTask("ok", stepFunc(func(*Proc) bool { return true }))
			p.Hold(1)
		}
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "task boom") {
		t.Fatalf("Run err = %v, want the early task's panic", err)
	}
	if len(k.procs) > 64 {
		t.Fatalf("%d procs retained after 1002 spawns", len(k.procs))
	}
}

func TestParkedProcDeadlockIsReported(t *testing.T) {
	k := NewKernel()
	k.Spawn("forgotten", func(p *Proc) { p.Park("nobody") })
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "forgotten(parked on nobody)") {
		t.Fatalf("err = %v", err)
	}
}

func TestTaskPrimitiveMisusePanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("proc", func(p *Proc) {
		mustPanic(t, "WakeAfter on a goroutine proc", func() { p.WakeAfter(1) })
		mustPanic(t, "Unpark of a running proc", func() { p.Unpark() })
	})
	blocking := k.SpawnTask("blocking", stepFunc(func(p *Proc) bool {
		p.Hold(1)
		return true
	}))
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "blocking primitive") {
		t.Fatalf("Run err = %v, want the task's blocking-call panic", err)
	}
	if !blocking.Done() {
		t.Fatal("panicking task not finished")
	}
}

type stepFunc func(p *Proc) bool

func (f stepFunc) Step(p *Proc) bool { return f(p) }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestHoldLoopAllocatesNothing: a lone proc whose own wakeup is always
// the next event keeps the token, and the typed event heap reuses its
// slot, so a hold allocates nothing.
func TestHoldLoopAllocatesNothing(t *testing.T) {
	k := NewKernel()
	var allocs float64
	k.Spawn("lone", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { p.Hold(time.Millisecond) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Hold allocates %.2f objects per call, want 0", allocs)
	}
}

func BenchmarkKernelHold(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Spawn("lone", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceHandoff: two procs take turns on a one-unit
// resource, so every op is a hold plus a proc-to-proc handoff.
func BenchmarkResourceHandoff(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	r := NewResource(k, "slot", 1)
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				r.Acquire(p)
				p.Hold(1)
				r.Release(p)
			}
		})
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
