package tape

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func mkVolumes(t *testing.T, name string, n int, capEach int64) *MultiVolume {
	t.Helper()
	vols := make([]*Media, n)
	for i := range vols {
		vols[i] = NewMedia(name+"-v", capEach)
	}
	mv, err := NewMultiVolume(name, vols...)
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

func TestMultiVolumeAppendSpansVolumes(t *testing.T) {
	mv := mkVolumes(t, "set", 3, 10)
	if mv.Capacity() != 30 || len(mv.vols) != 3 || mv.Free() != 30 {
		t.Fatalf("capacity=%d vols=%d free=%d", mv.Capacity(), len(mv.vols), mv.Free())
	}
	reg, err := mv.AppendSetup(mkBlocks(1, 25, 0))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Start != 0 || reg.N != 25 {
		t.Fatalf("region = %+v", reg)
	}
	if mv.EOD() != 25 || mv.Free() != 5 {
		t.Fatalf("EOD=%d free=%d", mv.EOD(), mv.Free())
	}
	// Read back across all three volumes and verify contents.
	blks, err := mv.ReadSetup(reg)
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blks {
		_, tuples := blk.MustDecode()
		if tuples[0].Key != uint64(i) {
			t.Fatalf("block %d: key %d", i, tuples[0].Key)
		}
	}
}

func TestMultiVolumeFull(t *testing.T) {
	mv := mkVolumes(t, "set", 2, 5)
	if _, err := mv.AppendSetup(mkBlocks(1, 11, 0)); err == nil {
		t.Fatal("want ErrTapeFull")
	}
}

func TestMultiVolumeAddressMapping(t *testing.T) {
	mv := mkVolumes(t, "set", 3, 10)
	cases := []struct {
		addr Addr
		vol  int
	}{{0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {29, 2}}
	for _, c := range cases {
		if got := mv.volumeOf(c.addr); got != c.vol {
			t.Errorf("volumeOf(%d) = %d, want %d", c.addr, got, c.vol)
		}
	}
	span := mv.volumeSpan(1)
	if span.Start != 10 || span.N != 10 {
		t.Fatalf("span(1) = %+v", span)
	}
}

func TestNewMultiVolumeValidation(t *testing.T) {
	if _, err := NewMultiVolume("empty"); err == nil {
		t.Fatal("want error for no volumes")
	}
	v1 := NewMedia("a", 10) // half-full first volume
	v1.AppendSetup(mkBlocks(1, 3, 0))
	v2 := NewMedia("b", 10)
	v2.AppendSetup(mkBlocks(1, 3, 0)) // data behind free space
	if _, err := NewMultiVolume("bad", v1, v2); err == nil {
		t.Fatal("want error for data behind free space")
	}
}

func TestDriveChargesMediaExchange(t *testing.T) {
	cfg := idealCfg()
	cfg.ExchangeTime = 30 * time.Second
	mv := mkVolumes(t, "set", 2, 10)
	mv.AppendSetup(mkBlocks(1, 20, 0))

	k := sim.NewKernel()
	d := NewDrive(k, "r", cfg, nil)
	d.Load(mv)
	k.Spawn("p", func(p *sim.Proc) {
		// Read 20 blocks across the boundary: 20 s of transfer plus
		// one 30 s exchange at block 10.
		blks, err := d.ReadAt(p, 0, 20)
		if err != nil {
			t.Error(err)
		}
		if len(blks) != 20 {
			t.Errorf("read %d blocks", len(blks))
		}
		if p.Now() != sim.Time(50*time.Second) {
			t.Errorf("now = %v, want 50s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Exchanges != 1 || d.Stats.ExchangeTime != 30*time.Second {
		t.Fatalf("exchange stats = %+v", d.Stats)
	}
}

func TestDriveExchangeBackAndForth(t *testing.T) {
	cfg := idealCfg()
	cfg.ExchangeTime = 30 * time.Second
	mv := mkVolumes(t, "set", 2, 10)
	mv.AppendSetup(mkBlocks(1, 20, 0))

	k := sim.NewKernel()
	d := NewDrive(k, "r", cfg, nil)
	d.Load(mv)
	k.Spawn("p", func(p *sim.Proc) {
		d.ReadAt(p, 12, 3) // exchange to vol 1 (+30), read 3
		d.ReadAt(p, 2, 3)  // exchange back (+30), read 3
		if p.Now() != sim.Time(66*time.Second) {
			t.Errorf("now = %v, want 66s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Exchanges != 2 {
		t.Fatalf("exchanges = %d, want 2", d.Stats.Exchanges)
	}
}

func TestReadRegionReverseAvoidsSeek(t *testing.T) {
	cfg := idealCfg()
	cfg.SeekFixed = 10 * time.Second
	cfg.SeekPerBlock = time.Second
	cfg.BiDirectional = true
	m := NewMedia("t", 100)
	m.AppendSetup(mkBlocks(1, 40, 0))

	k := sim.NewKernel()
	d := NewDrive(k, "r", cfg, nil)
	d.Load(m)
	k.Spawn("p", func(p *sim.Proc) {
		// Forward read of [0,40): head at 40, t=40.
		if _, err := d.ReadAt(p, 0, 40); err != nil {
			t.Error(err)
		}
		// Reverse read of the same region: head already at its end,
		// so no seek — just 40 s of transfer. Head returns to 0.
		blks, err := d.ReadRegionReverse(p, Region{Start: 0, N: 40})
		if err != nil {
			t.Error(err)
		}
		if len(blks) != 40 {
			t.Errorf("reverse read %d blocks", len(blks))
		}
		// Blocks come back in forward order.
		_, tuples := blks[0].MustDecode()
		if tuples[0].Key != 0 {
			t.Errorf("first block key = %d", tuples[0].Key)
		}
		if p.Now() != sim.Time(80*time.Second) {
			t.Errorf("now = %v, want 80s (no seek)", p.Now())
		}
		// Forward again from 0: head is at 0 after the reverse pass.
		d.ReadAt(p, 0, 40)
		if p.Now() != sim.Time(120*time.Second) {
			t.Errorf("now = %v, want 120s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Seeks != 0 {
		t.Fatalf("seeks = %d, want 0", d.Stats.Seeks)
	}
}

func TestReverseReadRequiresBiDirectionalDrive(t *testing.T) {
	m := NewMedia("t", 10)
	m.AppendSetup(mkBlocks(1, 5, 0))
	k := sim.NewKernel()
	d := NewDrive(k, "r", idealCfg(), nil)
	d.Load(m)
	k.Spawn("p", func(p *sim.Proc) {
		if _, err := d.ReadRegionReverse(p, Region{Start: 0, N: 5}); err == nil {
			t.Error("reverse read on uni-directional drive should fail")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestForwardReadAfterReverseSeeksOnce(t *testing.T) {
	cfg := idealCfg()
	cfg.SeekFixed = 5 * time.Second
	cfg.BiDirectional = true
	m := NewMedia("t", 100)
	m.AppendSetup(mkBlocks(1, 20, 0))
	k := sim.NewKernel()
	d := NewDrive(k, "r", cfg, nil)
	d.Load(m)
	k.Spawn("p", func(p *sim.Proc) {
		d.ReadAt(p, 0, 20)                               // t=20, head at 20
		d.ReadRegionReverse(p, Region{Start: 10, N: 10}) // no seek, t=30, head at 10
		// Turning around at the current position is free on a
		// serpentine drive: forward read from 10 costs transfer only.
		if _, err := d.ReadAt(p, 10, 5); err != nil {
			t.Error(err)
		}
		if p.Now() != sim.Time(35*time.Second) {
			t.Errorf("now = %v, want 35s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Seeks != 0 {
		t.Fatalf("seeks = %d, want 0 (turnarounds are free)", d.Stats.Seeks)
	}
}

// TestMultiVolumeWriteAt overwrites a run that straddles three
// cartridges in place, as TT-SM's WriteAt does on a volume set, and
// reads every block back. Writes that start past EOD or end past the
// set's capacity are rejected and change nothing.
func TestMultiVolumeWriteAt(t *testing.T) {
	mv := mkVolumes(t, "set", 3, 10)
	if _, err := mv.AppendSetup(mkBlocks(1, 25, 0)); err != nil {
		t.Fatal(err)
	}
	if err := mv.writeAt(7, mkBlocks(1, 16, 100)); err != nil {
		t.Fatal(err)
	}
	wantKey := func(a Addr) uint64 {
		if a >= 7 && a < 23 {
			return 100 + uint64(a-7)
		}
		return uint64(a)
	}
	check := func() {
		t.Helper()
		if mv.EOD() != 25 {
			t.Fatalf("EOD = %d, want 25", mv.EOD())
		}
		for a := Addr(0); a < 25; a++ {
			blks, err := mv.ReadSetup(Region{Start: a, N: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, tuples := blks[0].MustDecode(); tuples[0].Key != wantKey(a) {
				t.Fatalf("block %d: key %d, want %d", a, tuples[0].Key, wantKey(a))
			}
		}
	}
	check()

	if err := mv.writeAt(26, mkBlocks(1, 1, 900)); err == nil {
		t.Fatal("write past EOD accepted")
	}
	if err := mv.writeAt(25, mkBlocks(1, 6, 900)); !errors.Is(err, ErrTapeFull) {
		t.Fatalf("write past capacity: err = %v, want ErrTapeFull", err)
	}
	check()
}
