package filedev

// OS-level fault injection through the real-file backend: the same
// seeded -faults grammar that drives the device model strikes the
// syscall layer here, and the per-record CRC framing turns silent
// stored corruption into typed fault.ErrCorrupt.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tape"
)

// newStore builds a file-backed store on b with a small geometry.
func newStore(t *testing.T, b *Backend, k *sim.Kernel) device.Store {
	t.Helper()
	s, err := b.NewStore(k, device.StoreConfig{NumDisks: 2, BlocksPerDisk: 64, AggregateRate: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreOSErrorRetriedByWorker injects a transient EIO at the
// syscall layer of a scratch read. The error wraps fault.ErrTransient,
// so the device worker's own retry loop absorbs it — the caller sees a
// clean read.
func TestStoreOSErrorRetriedByWorker(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	s := newStore(t, b, k)
	sched, err := fault.Parse("oserr=disk:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetInjector(sched)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 4, 0)); err != nil {
			t.Fatal(err)
		}
		blks, err := f.ReadAt(p, 0, 4)
		if err != nil {
			t.Fatalf("read with retryable OS error: %v", err)
		}
		if len(blks) != 4 || keyOf(t, blks[2]) != 2 {
			t.Fatalf("payload after retry: %d blocks", len(blks))
		}
	})
	if s.DiskStats().Faults == 0 {
		t.Error("injected fault not counted in DiskStats")
	}
}

// TestStoreFlipStoredSurfacesErrCorrupt injects a bit-flip into the
// stored bytes of a scratch write (corrupt-on-write). The frame CRC
// captured at plan time no longer matches, so the read fails with
// typed fault.ErrCorrupt instead of delivering wrong bytes.
func TestStoreFlipStoredSurfacesErrCorrupt(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	s := newStore(t, b, k)
	sched, err := fault.Parse("flip=disk:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetInjector(sched)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 3, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(p, 0, 3); !errors.Is(err, fault.ErrCorrupt) {
			t.Fatalf("read of flipped record: %v, want fault.ErrCorrupt", err)
		}
	})
}

// TestStoreCorruptOnReadSurfacesErrCorrupt flips a bit of the bytes
// crossing the read syscall (corrupt-on-read): the stored copy is
// intact, only this delivery is damaged — a later re-read succeeds,
// which is what makes ErrCorrupt worth retrying at the join layer.
func TestStoreCorruptOnReadSurfacesErrCorrupt(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	s := newStore(t, b, k)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 3, 0)); err != nil {
			t.Fatal(err)
		}
		// Arm after the append so the flip strikes the read delivery.
		sched := mustSchedule(t, "flip=disk:0")
		s.SetInjector(readFlipper{sched})
		if _, err := f.ReadAt(p, 0, 3); !errors.Is(err, fault.ErrCorrupt) {
			t.Fatalf("read with flipped delivery: %v, want fault.ErrCorrupt", err)
		}
		s.SetInjector(nil)
		blks, err := f.ReadAt(p, 0, 3)
		if err != nil || len(blks) != 3 {
			t.Fatalf("re-read after transient delivery corruption: %v", err)
		}
	})
}

// readFlipper adapts a flip= schedule so it fires on reads: the grammar
// scopes flip to writes (stored corruption), and this shim rewrites the
// op direction to model a damaged delivery instead.
type readFlipper struct{ s *fault.Schedule }

func (r readFlipper) Decide(op fault.Op) fault.Decision {
	op.Write = true
	return r.s.Decide(op)
}

// mustSchedule parses a fault spec or fails the test.
func mustSchedule(t *testing.T, spec string) *fault.Schedule {
	t.Helper()
	s, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreTornWriteTruncatedTail tears the final record of a scratch
// file: only a prefix reaches the OS file, yet the write reports
// success. The short read of the truncated tail surfaces as typed
// fault.ErrCorrupt.
func TestStoreTornWriteTruncatedTail(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	s := newStore(t, b, k)
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 2, 0)); err != nil {
			t.Fatal(err)
		}
		// Tear the final record: the file ends mid-payload.
		s.SetInjector(mustSchedule(t, "torn=disk:2"))
		if err := f.Append(p, mkBlocks(1, 1, 100)); err != nil {
			t.Fatalf("torn write must report success: %v", err)
		}
		if _, err := f.ReadAt(p, 2, 1); !errors.Is(err, fault.ErrCorrupt) {
			t.Fatalf("read of torn tail: %v, want fault.ErrCorrupt", err)
		}
		// Earlier records are untouched.
		blks, err := f.ReadAt(p, 0, 2)
		if err != nil || len(blks) != 2 {
			t.Fatalf("read of intact prefix: %v", err)
		}
	})
}

// TestDriveOSFaults runs the same OS-level taxonomy through the tape
// spool: oserr is absorbed by device retries, flip on the spooled copy
// surfaces as fault.ErrCorrupt.
func TestDriveOSFaults(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	d, err := b.NewDrive(k, "R", device.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Load(tape.NewMedia("t1", 100))
	run(t, k, func(p *sim.Proc) {
		if _, err := d.Append(p, mkBlocks(1, 6, 0)); err != nil {
			t.Fatal(err)
		}
		sched, err := fault.Parse("oserr=R:1")
		if err != nil {
			t.Fatal(err)
		}
		d.SetInjector(sched)
		blks, err := d.ReadAt(p, 0, 6)
		if err != nil || len(blks) != 6 {
			t.Fatalf("read with retryable OS error: %v (%d blocks)", err, len(blks))
		}
		// A flip on the spool's stored copy: WriteAt repoints block 2 to
		// a fresh record whose stored bytes are damaged in flight.
		d.SetInjector(mustSchedule(t, "flip=R:2"))
		if err := d.WriteAt(p, 2, mkBlocks(2, 1, 200)); err != nil {
			t.Fatalf("flipped write must report success: %v", err)
		}
		if _, err := d.ReadAt(p, 2, 1); !errors.Is(err, fault.ErrCorrupt) {
			t.Fatalf("read of flipped spool record: %v, want fault.ErrCorrupt", err)
		}
	})
}

// TestStallTimeoutsTripBreaker wires a tight per-op deadline and a
// wall-clock stall through one store: the stalled attempt misses its
// deadline, the breaker trips, and the next operation fails fast with
// the device-loss error unit recovery reacts to. Device-layer retries
// are disabled — OS decisions are armed at plan time, so a retry runs
// clean and would heal the stall (that path is covered by
// TestStallRecoveredByRetry).
func TestStallTimeoutsTripBreaker(t *testing.T) {
	b := New(t.TempDir())
	b.OpTimeout = 5 * time.Millisecond
	b.TripAfter = 1
	b.RetryMax = -1
	k := sim.NewKernel()
	s := newStore(t, b, k)
	s.SetInjector(mustSchedule(t, "oswait=disk:60ms:50"))
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		err = f.Append(p, mkBlocks(1, 2, 0))
		if !errors.Is(err, fault.ErrTimeout) {
			t.Fatalf("stalled append: %v, want fault.ErrTimeout", err)
		}
		// The breaker is open now: the next operation never reaches the
		// stalled worker and surfaces the typed device-loss sentinel.
		err = f.Append(p, mkBlocks(1, 2, 0))
		if !errors.Is(err, fault.ErrDeviceLost) || !errors.Is(err, fault.ErrDeviceFailed) {
			t.Fatalf("append after trip: %v, want ErrDeviceLost wrapping ErrDeviceFailed", err)
		}
	})
}

// TestStallRecoveredByRetry is the flip side of the breaker test: with
// the default retry policy, one stalled attempt times out, the retry
// re-runs the planned syscalls clean (the armed decision was consumed),
// and the operation — and the device's health — recover. Further
// appends follow before the read: had the retried append's pooled
// frame been recycled while an attempt could still write from it, a
// record would read back with another append's key.
func TestStallRecoveredByRetry(t *testing.T) {
	b := New(t.TempDir())
	b.OpTimeout = 5 * time.Millisecond
	k := sim.NewKernel()
	s := newStore(t, b, k)
	s.SetInjector(mustSchedule(t, "oswait=disk:30ms"))
	run(t, k, func(p *sim.Proc) {
		f, err := s.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(1, 2, 0)); err != nil {
			t.Fatalf("append with one stalled attempt: %v", err)
		}
		want := []uint64{0, 1}
		for i := uint64(1); i <= 3; i++ {
			if err := f.Append(p, mkBlocks(1, 2, 100*i)); err != nil {
				t.Fatalf("append %d after recovered stall: %v", i, err)
			}
			want = append(want, 100*i, 100*i+1)
		}
		blks, err := f.ReadAt(p, 0, int64(len(want)))
		if err != nil || len(blks) != len(want) {
			t.Fatalf("read after recovered stall: %v", err)
		}
		for i, w := range want {
			if got := keyOf(t, blks[i]); got != w {
				t.Errorf("block %d key = %d, want %d", i, got, w)
			}
		}
	})
}
