package buffer

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestInterleavedChunkIsFullCapacity(t *testing.T) {
	k := sim.NewKernel()
	b := NewInterleaved(k, "buf", 100)
	if b.ChunkCapacity() != 100 {
		t.Fatalf("chunk = %d, want 100", b.ChunkCapacity())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitChunkIsHalfCapacity(t *testing.T) {
	k := sim.NewKernel()
	b := NewSplit(k, "buf", 100)
	if b.ChunkCapacity() != 50 {
		t.Fatalf("chunk = %d, want 50", b.ChunkCapacity())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// pipeline runs a producer filling iteration chunks and a consumer
// draining them, returning the makespan.
func pipeline(t *testing.T, mk func(k *sim.Kernel) DoubleBuffer, iters int64) (sim.Time, DoubleBuffer) {
	t.Helper()
	k := sim.NewKernel()
	b := mk(k)
	chunk := b.ChunkCapacity()
	ready := sim.NewQueue[int64](k, "ready", 1)
	k.Spawn("producer", func(p *sim.Proc) {
		for i := int64(0); i < iters; i++ {
			for got := int64(0); got < chunk; got += 10 {
				b.Acquire(p, i, 10)
				p.Hold(time.Second) // fill 10 blocks
			}
			ready.Send(p, i)
		}
		ready.Close(p)
	})
	k.Spawn("consumer", func(p *sim.Proc) {
		for {
			i, ok := ready.Recv(p)
			if !ok {
				return
			}
			// Fixed per-iteration cost: in a tertiary join every chunk
			// of S triggers a full scan of R, regardless of chunk size.
			p.Hold(8 * time.Second)
			for done := int64(0); done < chunk; done += 10 {
				p.Hold(time.Second) // consume 10 blocks
				b.Release(p, i, 10)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k.Now(), b
}

func TestInterleavedOverlapsProducerAndConsumer(t *testing.T) {
	// 4 iterations of 100 blocks at 10 blocks/s per side plus an 8s
	// per-iteration fixed cost. Pipelined: ~10s fill + 4*18s consume.
	// Fully serial would be 4*(10+18) = 112s.
	makespan, _ := pipeline(t, func(k *sim.Kernel) DoubleBuffer {
		return NewInterleaved(k, "buf", 100)
	}, 4)
	if makespan > sim.Time(90*time.Second) {
		t.Fatalf("makespan = %v, want pipelined (< 90s)", makespan)
	}
}

func TestSplitDoublesIterationsAndLoses(t *testing.T) {
	// Moving the same 400 blocks through the same 100 blocks of space:
	// split halves the chunk, doubling the iterations and hence the
	// per-iteration fixed cost (the extra R scans of Section 4).
	inter, _ := pipeline(t, func(k *sim.Kernel) DoubleBuffer {
		return NewInterleaved(k, "buf", 100)
	}, 4)
	split, _ := pipeline(t, func(k *sim.Kernel) DoubleBuffer {
		return NewSplit(k, "buf", 100)
	}, 8)
	// Interleaved consumer busy 4*18s = 72s; split consumer 8*13s =
	// 104s. Require a clear win for interleaved.
	if split <= inter+sim.Time(20*time.Second) {
		t.Fatalf("interleaved %v should beat split %v by the extra fixed costs", inter, split)
	}
}

func TestInterleavedUtilizationNearFull(t *testing.T) {
	// During steady state the shared buffer stays near 100% utilized
	// (the paper's Figure 4).
	makespan, b := pipeline(t, func(k *sim.Kernel) DoubleBuffer {
		return NewInterleaved(k, "buf", 100)
	}, 6)
	u := meanUtilization(b.Trace(), 100, makespan)
	if u < 0.80 {
		t.Fatalf("mean utilization = %.2f, want >= 0.80", u)
	}
	// No sample may exceed capacity.
	for _, s := range b.Trace() {
		if s.Total() > 100 {
			t.Fatalf("sample exceeds capacity: %+v", s)
		}
	}
}

func TestTraceParitiesAlternate(t *testing.T) {
	// Even-iteration usage must rise then fall; odd likewise, offset.
	_, b := pipeline(t, func(k *sim.Kernel) DoubleBuffer {
		return NewInterleaved(k, "buf", 100)
	}, 4)
	trace := b.Trace()
	var evenPeak, oddPeak int64
	for _, s := range trace {
		if s.Even > evenPeak {
			evenPeak = s.Even
		}
		if s.Odd > oddPeak {
			oddPeak = s.Odd
		}
	}
	if evenPeak != 100 || oddPeak != 100 {
		t.Fatalf("peaks = %d/%d, want 100/100", evenPeak, oddPeak)
	}
	// The trace must end with both parities empty.
	last := trace[len(trace)-1]
	if last.Total() != 0 {
		t.Fatalf("final sample = %+v, want empty", last)
	}
}

func TestReleaseMoreThanHeldPanics(t *testing.T) {
	k := sim.NewKernel()
	b := NewInterleaved(k, "buf", 10)
	k.Spawn("bad", func(p *sim.Proc) {
		b.Acquire(p, 0, 5)
		b.Release(p, 0, 6)
	})
	if err := k.Run(); err == nil {
		t.Fatal("expected captured panic")
	}
}

func TestSplitReleaseMoreThanHeldPanics(t *testing.T) {
	k := sim.NewKernel()
	b := NewSplit(k, "buf", 10)
	k.Spawn("bad", func(p *sim.Proc) {
		b.Release(p, 1, 1)
	})
	if err := k.Run(); err == nil {
		t.Fatal("expected captured panic")
	}
}

// meanUtilization is the time-weighted mean of a trace's total usage
// divided by capacity, over [0, end].
func meanUtilization(trace []Sample, capacity int64, end sim.Time) float64 {
	var area float64 // block-seconds
	for i, s := range trace {
		until := end
		if i+1 < len(trace) {
			until = trace[i+1].T
		}
		area += float64(s.Total()) * (until.Seconds() - s.T.Seconds())
	}
	return area / (float64(capacity) * end.Seconds())
}
