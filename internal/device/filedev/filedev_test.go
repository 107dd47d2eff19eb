package filedev

import (
	"errors"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tape"
)

func mkBlocks(tag byte, n int, keyBase uint64) []block.Block {
	out := make([]block.Block, n)
	for i := range out {
		b := block.NewBuilder(tag)
		b.Append(block.Tuple{Key: keyBase + uint64(i)})
		out[i] = b.Finish()
	}
	return out
}

func keyOf(t *testing.T, b block.Block) uint64 {
	t.Helper()
	_, tuples, err := b.Decode()
	if err != nil || len(tuples) == 0 {
		t.Fatalf("decode: %v", err)
	}
	return tuples[0].Key
}

// run spawns fn as a proc on a fresh kernel and drains it.
func run(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("t", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func biDirCfg() device.DriveConfig {
	cfg := device.Ideal()
	cfg.BiDirectional = true
	return cfg
}

func TestDriveSpoolRoundTrip(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	d, err := b.NewDrive(k, "R", biDirCfg())
	if err != nil {
		t.Fatal(err)
	}
	m := tape.NewMedia("t1", 100)
	d.Load(m)
	run(t, k, func(p *sim.Proc) {
		reg, err := d.Append(p, mkBlocks(1, 10, 0))
		if err != nil {
			t.Fatal(err)
		}
		if reg.Start != 0 || reg.N != 10 {
			t.Fatalf("region = %+v", reg)
		}
		// Forward read through the OS-file spool.
		blks, err := d.ReadAt(p, reg.Start, reg.N)
		if err != nil || len(blks) != 10 {
			t.Fatalf("ReadAt: %d blocks, err %v", len(blks), err)
		}
		if keyOf(t, blks[3]) != 3 {
			t.Errorf("block 3 key = %d", keyOf(t, blks[3]))
		}
		// Reverse reading changes head motion only; like the simulated
		// drive, the blocks come back in forward order.
		rev, err := d.ReadRegionReverse(p, reg)
		if err != nil || len(rev) != 10 {
			t.Fatalf("ReadRegionReverse: %d blocks, err %v", len(rev), err)
		}
		if keyOf(t, rev[0]) != 0 || keyOf(t, rev[9]) != 9 {
			t.Errorf("reverse read reordered blocks: first key %d, last key %d",
				keyOf(t, rev[0]), keyOf(t, rev[9]))
		}
	})
}

// TestDriveWriteAtRepoints overwrites recorded blocks: the spool is
// append-only, so the overwrite lands as fresh records and the index
// repoints — later reads must see the new data, and the authoritative
// medium must agree.
func TestDriveWriteAtRepoints(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	d, err := b.NewDrive(k, "R", device.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	d.Load(tape.NewMedia("t1", 100))
	run(t, k, func(p *sim.Proc) {
		if _, err := d.Append(p, mkBlocks(1, 8, 0)); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteAt(p, 2, mkBlocks(2, 3, 100)); err != nil {
			t.Fatal(err)
		}
		blks, err := d.ReadAt(p, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []uint64{0, 1, 100, 101, 102, 5, 6, 7} {
			if got := keyOf(t, blks[i]); got != want {
				t.Errorf("block %d key = %d, want %d", i, got, want)
			}
		}
	})
}

// TestDriveLoadRespoolsMedium mounts a cartridge that already carries
// data (written by a generator or another drive): Load must respool it
// into the drive's OS file so reads serve the recorded blocks.
func TestDriveLoadRespoolsMedium(t *testing.T) {
	m := tape.NewMedia("t1", 100)
	b := New(t.TempDir())
	k := sim.NewKernel()
	d1, _ := b.NewDrive(k, "A", device.Ideal())
	d1.Load(m)
	run(t, k, func(p *sim.Proc) {
		if _, err := d1.Append(p, mkBlocks(1, 6, 40)); err != nil {
			t.Fatal(err)
		}
	})

	k2 := sim.NewKernel()
	d2, _ := b.NewDrive(k2, "B", device.Ideal())
	d2.Load(m)
	run(t, k2, func(p *sim.Proc) {
		blks, err := d2.ReadAt(p, 0, 6)
		if err != nil || len(blks) != 6 {
			t.Fatalf("ReadAt after respool: %d blocks, err %v", len(blks), err)
		}
		if keyOf(t, blks[5]) != 45 {
			t.Errorf("respooled block 5 key = %d, want 45", keyOf(t, blks[5]))
		}
	})
}

func TestDriveReadOutOfRange(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	d, _ := b.NewDrive(k, "R", biDirCfg())
	d.Load(tape.NewMedia("t1", 100))
	run(t, k, func(p *sim.Proc) {
		d.Append(p, mkBlocks(1, 5, 0))
		for _, c := range []struct{ addr, n int64 }{
			{4, 2}, {5, 1}, {-1, 1}, {0, -1}, {0, 6},
		} {
			if _, err := d.ReadAt(p, device.Addr(c.addr), c.n); err == nil {
				t.Errorf("ReadAt(%d, %d): want out-of-range error", c.addr, c.n)
			}
			if _, err := d.ReadRegionReverse(p, device.Region{Start: device.Addr(c.addr), N: c.n}); err == nil {
				t.Errorf("ReadRegionReverse(%d, %d): want out-of-range error", c.addr, c.n)
			}
		}
	})
}

func TestStoreRoundTripAndBounds(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	st, err := b.NewStore(k, device.StoreConfig{
		NumDisks: 2, AggregateRate: 4, BlocksPerDisk: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCapacity() != 100 {
		t.Fatalf("capacity = %d, want 100", st.TotalCapacity())
	}
	run(t, k, func(p *sim.Proc) {
		f, err := st.Create("scratch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(3, 7, 0)); err != nil {
			t.Fatal(err)
		}
		if used := st.TotalCapacity() - st.Free(); f.Len() != 7 || used != 7 {
			t.Fatalf("len %d used %d", f.Len(), used)
		}
		blks, err := f.ReadAt(p, 2, 3)
		if err != nil || len(blks) != 3 || keyOf(t, blks[0]) != 2 {
			t.Fatalf("ReadAt: %d blocks, err %v", len(blks), err)
		}
		if _, err := f.ReadAt(p, 5, 3); err == nil {
			t.Error("want error reading past end")
		}
		if _, err := f.ReadAt(p, -1, 1); err == nil {
			t.Error("want error for negative offset")
		}
		f.Free()
		if used := st.TotalCapacity() - st.Free(); used != 0 {
			t.Errorf("used %d after Free", used)
		}
	})
}

func TestStoreDiskFull(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	st, _ := b.NewStore(k, device.StoreConfig{
		NumDisks: 1, AggregateRate: 4, BlocksPerDisk: 4,
	})
	run(t, k, func(p *sim.Proc) {
		f, _ := st.Create("tight", nil)
		if err := f.Append(p, mkBlocks(3, 4, 0)); err != nil {
			t.Fatal(err)
		}
		err := f.Append(p, mkBlocks(3, 1, 0))
		if !errors.Is(err, fault.ErrDiskFull) {
			t.Fatalf("err = %v, want ErrDiskFull", err)
		}
	})
}

// TestSharedPairRepositionsOnSwitch checks the shared-transport pair:
// both drives use one mechanism, so switching drives invalidates the
// head position and charges a reposition, and transfers serialize on
// the shared resource.
func TestSharedPairRepositionsOnSwitch(t *testing.T) {
	b := New(t.TempDir())
	k := sim.NewKernel()
	dA, dB, err := b.NewSharedDrivePair(k, "A", "B", device.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	dA.Load(tape.NewMedia("tA", 100))
	dB.Load(tape.NewMedia("tB", 100))
	run(t, k, func(p *sim.Proc) {
		if _, err := dA.Append(p, mkBlocks(1, 4, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := dB.Append(p, mkBlocks(2, 4, 50)); err != nil {
			t.Fatal(err)
		}
		// Back to A: its cached head position is stale after B held the
		// transport; the read must still deliver the right blocks.
		blks, err := dA.ReadAt(p, 0, 4)
		if err != nil || len(blks) != 4 || keyOf(t, blks[0]) != 0 {
			t.Fatalf("A after switch: %d blocks, err %v", len(blks), err)
		}
		blks, err = dB.ReadAt(p, 0, 4)
		if err != nil || len(blks) != 4 || keyOf(t, blks[0]) != 50 {
			t.Fatalf("B after switch: %d blocks, err %v", len(blks), err)
		}
	})
}

func TestBackendName(t *testing.T) {
	if got := New(t.TempDir()).Name(); got != "file" {
		t.Fatalf("Name() = %q", got)
	}
}
