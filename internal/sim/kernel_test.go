package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestHoldAdvancesClock(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("a", func(p *Proc) {
		p.Hold(3 * time.Second)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(3*time.Second) {
		t.Fatalf("end = %v, want 3s", end)
	}
}

func TestHoldZeroAndNegative(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		p.Hold(0)
		p.Hold(-time.Second)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelHoldsOverlap(t *testing.T) {
	// Two processes holding 5s and 7s concurrently finish at max, not sum.
	k := NewKernel()
	var endA, endB Time
	k.Spawn("a", func(p *Proc) { p.Hold(5 * time.Second); endA = p.Now() })
	k.Spawn("b", func(p *Proc) { p.Hold(7 * time.Second); endB = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if endA != Time(5*time.Second) || endB != Time(7*time.Second) {
		t.Fatalf("endA=%v endB=%v", endA, endB)
	}
	if k.Now() != Time(7*time.Second) {
		t.Fatalf("kernel now = %v, want 7s", k.Now())
	}
}

func TestSequentialHoldsAccumulate(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Hold(time.Second)
		}
		if p.Now() != Time(10*time.Second) {
			t.Errorf("now = %v, want 10s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitForProcess(t *testing.T) {
	k := NewKernel()
	var waited Time
	child := k.Spawn("child", func(p *Proc) { p.Hold(4 * time.Second) })
	k.Spawn("parent", func(p *Proc) {
		if err := p.Wait(child); err != nil {
			t.Errorf("wait: %v", err)
		}
		waited = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != Time(4*time.Second) {
		t.Fatalf("waited until %v, want 4s", waited)
	}
}

func TestWaitOnFinishedProcess(t *testing.T) {
	k := NewKernel()
	child := k.Spawn("child", func(p *Proc) {})
	k.Spawn("parent", func(p *Proc) {
		p.Hold(time.Second) // child finishes first
		if err := p.Wait(child); err != nil {
			t.Errorf("wait: %v", err)
		}
		if !child.Done() {
			t.Error("child not done")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAllCollectsFirstError(t *testing.T) {
	k := NewKernel()
	a := k.Spawn("a", func(p *Proc) {})
	b := k.Spawn("b", func(p *Proc) { panic("boom") })
	k.Spawn("parent", func(p *Proc) {
		err := p.WaitAll(a, b)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("WaitAll err = %v, want boom", err)
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run err = %v, want boom", err)
	}
}

func TestSpawnFromWithinProcess(t *testing.T) {
	k := NewKernel()
	var childEnd Time
	k.Spawn("parent", func(p *Proc) {
		p.Hold(time.Second)
		child := p.Kernel().Spawn("child", func(c *Proc) {
			c.Hold(2 * time.Second)
			childEnd = c.Now()
		})
		if err := p.Wait(child); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != Time(3*time.Second) {
		t.Fatalf("child end = %v, want 3s", childEnd)
	}
}

func TestPanicIsCapturedAsError(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) { panic("kaput") })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v, want kaput", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dev", 1)
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		// Never releases; the waiter below deadlocks.
		q := NewQueue[int](k, "never", 1)
		q.Recv(p)
	})
	k.Spawn("waiter", func(p *Proc) { r.Acquire(p) })
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "waiter") || !strings.Contains(err.Error(), "holder") {
		t.Fatalf("deadlock error should name stuck processes: %v", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestEmptyKernelRuns(t *testing.T) {
	k := NewKernel()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesFIFOAtSameTime(t *testing.T) {
	// Processes scheduled at the same instant run in spawn order.
	k := NewKernel()
	var order []string
	for _, name := range []string{"p0", "p1", "p2", "p3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			p.Hold(time.Second)
			order = append(order, name)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "p0,p1,p2,p3"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestTimeSeconds(t *testing.T) {
	if s := Time(1500 * time.Millisecond).Seconds(); s != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", s)
	}
	if str := Time(2 * time.Second).String(); str != "2s" {
		t.Fatalf("String = %q, want 2s", str)
	}
}

func TestProcName(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("my-proc", func(p *Proc) {})
	if p.Name() != "my-proc" {
		t.Fatalf("name = %q", p.Name())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// poolUser is one unit of work of TestDeterminism, run either as a
// task or as the body of a goroutine proc: take units from a pool,
// hold a device for d, give both back.
type poolUser struct {
	name  string
	d     time.Duration
	r     *Resource
	pool  *Container
	trace *[]string
	phase int
}

// Step implements Task. The pool is polled: TryGet stands in for a
// blocking Get, which a task cannot make.
func (u *poolUser) Step(p *Proc) bool {
	switch u.phase {
	case 0:
		if !u.pool.TryGet(p, 30) {
			p.WakeAfter(time.Second)
			return false
		}
		u.phase = 1
		if !u.r.AcquireOrQueue(p) {
			return false
		}
		fallthrough
	case 1:
		u.phase = 2
		p.WakeAfter(u.d)
		return false
	}
	*u.trace = append(*u.trace, u.name+"@"+p.Now().String())
	u.r.Release(p)
	u.pool.Put(p, 30)
	return true
}

// run is Step's blocking twin, for a goroutine proc.
func (u *poolUser) run(p *Proc) {
	for !u.pool.TryGet(p, 30) {
		p.Hold(time.Second)
	}
	u.r.Acquire(p)
	p.Hold(u.d)
	*u.trace = append(*u.trace, u.name+"@"+p.Now().String())
	u.r.Release(p)
	u.pool.Put(p, 30)
}

func TestDeterminism(t *testing.T) {
	// The same program produces the same event trace on every run —
	// with goroutine procs and tasks sharing one resource and one
	// container — and a task makes exactly the scheduling decisions of
	// the goroutine proc it stands in for.
	run := func(tasks bool) ([]string, int64) {
		k := NewKernel()
		var trace []string
		r := NewResource(k, "dev", 1)
		c := NewContainer(k, "pool", 100, 100)
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			d := time.Duration(i+1) * time.Second
			k.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					c.Get(p, 30)
					r.Acquire(p)
					p.Hold(d)
					trace = append(trace, name+"@"+p.Now().String())
					r.Release(p)
					c.Put(p, 30)
					// Each round also starts a helper on the same
					// resource and pool, as a task or a proc.
					u := &poolUser{name: name + "'", d: d / 2, r: r, pool: c, trace: &trace}
					if tasks {
						k.SpawnTask(u.name, u)
					} else {
						k.Spawn(u.name, u.run)
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace, k.EventsProcessed
	}
	t1, e1 := run(true)
	t2, e2 := run(true)
	if e1 != e2 {
		t.Fatalf("event counts differ: %d vs %d", e1, e2)
	}
	if strings.Join(t1, " ") != strings.Join(t2, " ") {
		t.Fatalf("traces differ:\n%v\n%v", t1, t2)
	}
	t3, e3 := run(false)
	if e1 != e3 || strings.Join(t1, " ") != strings.Join(t3, " ") {
		t.Fatalf("tasks and procs schedule differently (%d vs %d events):\n%v\n%v", e1, e3, t1, t3)
	}
	if len(t1) != 30 {
		t.Fatalf("trace has %d entries, want 30", len(t1))
	}
}

func TestStressManyProcessesSharedResources(t *testing.T) {
	// 200 processes contending on resources, containers and queues:
	// no deadlock, conserved units, monotone virtual time.
	k := NewKernel()
	devs := []*Resource{
		NewResource(k, "d0", 1), NewResource(k, "d1", 2), NewResource(k, "d2", 1),
	}
	pool := NewContainer(k, "pool", 500, 500)
	q := NewQueue[int](k, "work", 8)
	var produced, consumed int

	for i := 0; i < 100; i++ {
		i := i
		k.Spawn("producer", func(p *Proc) {
			for j := 0; j < 5; j++ {
				pool.Get(p, int64(i%7)+1)
				devs[i%3].Acquire(p)
				p.Hold(time.Duration(i%11+1) * time.Millisecond)
				devs[i%3].Release(p)
				pool.Put(p, int64(i%7)+1)
				q.Send(p, i*10+j)
				produced++
			}
		})
	}
	done := make([]*Proc, 0, 4)
	for w := 0; w < 4; w++ {
		done = append(done, k.Spawn("consumer", func(p *Proc) {
			for {
				_, ok := q.Recv(p)
				if !ok {
					return
				}
				consumed++
				p.Hold(2 * time.Millisecond)
			}
		}))
	}
	k.Spawn("closer", func(p *Proc) {
		// Close the queue once all producers are finished: poll the
		// consumed count through time.
		for produced < 500 {
			p.Hold(time.Millisecond)
		}
		for q.Len() > 0 {
			p.Hold(time.Millisecond)
		}
		q.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	_ = done
	if produced != 500 || consumed != 500 {
		t.Fatalf("produced %d consumed %d", produced, consumed)
	}
	if pool.Level() != 500 {
		t.Fatalf("pool level %d, want 500", pool.Level())
	}
}
