package sim

import (
	"testing"
	"time"
)

func TestResourceMutualExclusion(t *testing.T) {
	// Two 5s holds on a capacity-1 resource serialize: total 10s.
	k := NewKernel()
	r := NewResource(k, "drive", 1)
	work := func(p *Proc) {
		r.Acquire(p)
		p.Hold(5 * time.Second)
		r.Release(p)
	}
	k.Spawn("a", work)
	k.Spawn("b", work)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != Time(10*time.Second) {
		t.Fatalf("now = %v, want 10s", k.Now())
	}
	if r.BusyTime != 10*time.Second {
		t.Fatalf("busy = %v, want 10s", r.BusyTime)
	}
	if r.Acquisitions != 2 {
		t.Fatalf("acquisitions = %d, want 2", r.Acquisitions)
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disks", 2)
	work := func(p *Proc) {
		r.Acquire(p)
		p.Hold(5 * time.Second)
		r.Release(p)
	}
	k.Spawn("a", work)
	k.Spawn("b", work)
	k.Spawn("c", work)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// a,b run [0,5); c runs [5,10).
	if k.Now() != Time(10*time.Second) {
		t.Fatalf("now = %v, want 10s", k.Now())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dev", 1)
	var order []string
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Hold(time.Second)
		r.Release(p)
	})
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Hold(time.Second)
			r.Release(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("order = %v", order)
	}
}

func TestReleaseIdleResourcePanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dev", 1)
	k.Spawn("a", func(p *Proc) { r.Release(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected captured panic")
	}
}

func TestNewResourceBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewKernel(), "dev", 0)
}

func TestResourceBusyTimeFractional(t *testing.T) {
	// Capacity-2 resource held by one proc for 10s accrues 5s of
	// capacity-weighted busy time.
	k := NewKernel()
	r := NewResource(k, "pair", 2)
	k.Spawn("a", func(p *Proc) {
		r.Acquire(p)
		p.Hold(10 * time.Second)
		r.Release(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.BusyTime != 5*time.Second {
		t.Fatalf("busy = %v, want 5s", r.BusyTime)
	}
}
