package tape

import (
	"errors"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sim"
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

func TestMediaAppendRead(t *testing.T) {
	m := NewMedia("t1", 100)
	if m.Name() != "t1" || m.Capacity() != 100 || m.EOD() != 0 || m.Free() != 100 {
		t.Fatalf("fresh media state wrong: %+v", m)
	}
	r1, err := m.append(mkBlocks(1, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Start != 0 || r1.N != 10 || r1.End() != 10 {
		t.Fatalf("region = %+v", r1)
	}
	r2, err := m.append(mkBlocks(2, 5, 100))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Start != 10 || m.EOD() != 15 || m.Free() != 85 {
		t.Fatalf("second region %+v, EOD %d", r2, m.EOD())
	}
	blks, err := m.read(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	tag, tuples, err := blks[0].Decode()
	if err != nil || tag != 2 || tuples[0].Key != 100 {
		t.Fatalf("decode: tag=%d key=%d err=%v", tag, tuples[0].Key, err)
	}
}

func TestMediaFull(t *testing.T) {
	m := NewMedia("t1", 3)
	if _, err := m.append(mkBlocks(1, 4, 0)); !errors.Is(err, ErrTapeFull) {
		t.Fatalf("err = %v, want ErrTapeFull", err)
	}
}

func TestMediaReadBeyondEOD(t *testing.T) {
	m := NewMedia("t1", 10)
	m.append(mkBlocks(1, 2, 0))
	if _, err := m.read(0, 3); err == nil {
		t.Fatal("want error reading past EOD")
	}
	if _, err := m.read(-1, 1); err == nil {
		t.Fatal("want error for negative address")
	}
}

func TestMediaTruncate(t *testing.T) {
	m := NewMedia("t1", 10)
	m.append(mkBlocks(1, 8, 0))
	m.Truncate(3)
	if m.EOD() != 3 || m.Free() != 7 {
		t.Fatalf("EOD = %d free = %d", m.EOD(), m.Free())
	}
}

func TestRegionSub(t *testing.T) {
	r := Region{Start: 10, N: 20}
	s := r.Sub(5, 10)
	if s.Start != 15 || s.N != 10 {
		t.Fatalf("sub = %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Sub")
		}
	}()
	r.Sub(15, 10)
}

// idealCfg has rate 1 block per second for easy arithmetic.
func idealCfg() DriveConfig {
	return DriveConfig{NativeRate: block.VirtualSize, CompressionFactor: 1}
}

func TestDriveTransferTime(t *testing.T) {
	k := sim.NewKernel()
	d := NewDrive(k, "r", idealCfg(), nil)
	m := NewMedia("t", 1000)
	m.append(mkBlocks(1, 100, 0))
	d.Load(m)
	k.Spawn("reader", func(p *sim.Proc) {
		blks, err := d.ReadAt(p, 0, 50)
		if err != nil {
			t.Error(err)
		}
		if len(blks) != 50 {
			t.Errorf("read %d blocks, want 50", len(blks))
		}
		if p.Now() != sim.Time(50*time.Second) {
			t.Errorf("read of 50 blocks took %v, want 50s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.BlocksRead != 50 || d.Stats.Requests != 1 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

func TestDriveCompressionSpeedsTransfers(t *testing.T) {
	cfg := idealCfg()
	cfg.CompressionFactor = 2
	k := sim.NewKernel()
	d := NewDrive(k, "r", cfg, nil)
	m := NewMedia("t", 100)
	m.append(mkBlocks(1, 20, 0))
	d.Load(m)
	k.Spawn("reader", func(p *sim.Proc) {
		d.ReadAt(p, 0, 20)
		if p.Now() != sim.Time(10*time.Second) {
			t.Errorf("compressed read took %v, want 10s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDriveSeekCharged(t *testing.T) {
	cfg := idealCfg()
	cfg.SeekFixed = 5 * time.Second
	cfg.SeekPerBlock = 100 * time.Millisecond
	k := sim.NewKernel()
	d := NewDrive(k, "r", cfg, nil)
	m := NewMedia("t", 1000)
	m.append(mkBlocks(1, 200, 0))
	d.Load(m)
	k.Spawn("reader", func(p *sim.Proc) {
		d.ReadAt(p, 0, 10)  // t=10 (no seek: head at 0)
		d.ReadAt(p, 10, 10) // sequential: no seek, t=20
		// Jump back to 0: seek 5s fixed + 20 blocks * 0.1s = 7s; then 10s read.
		d.ReadAt(p, 0, 10)
		if p.Now() != sim.Time(37*time.Second) {
			t.Errorf("now = %v, want 37s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Seeks != 1 || d.Stats.SeekTime != 7*time.Second {
		t.Fatalf("seek stats = %+v", d.Stats)
	}
}

func TestDriveStartStopPenalty(t *testing.T) {
	cfg := idealCfg()
	cfg.StartStopPenalty = 2 * time.Second
	k := sim.NewKernel()
	d := NewDrive(k, "r", cfg, nil)
	m := NewMedia("t", 100)
	m.append(mkBlocks(1, 30, 0))
	d.Load(m)
	k.Spawn("reader", func(p *sim.Proc) {
		d.ReadAt(p, 0, 10)      // first transfer: no penalty, ends t=10
		d.ReadAt(p, 10, 10)     // back-to-back: streaming, no penalty, ends t=20
		p.Hold(5 * time.Second) // drive stops
		d.ReadAt(p, 20, 10)     // resume: 2s penalty + 10s, ends t=37
		if p.Now() != sim.Time(37*time.Second) {
			t.Errorf("now = %v, want 37s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.StartStops != 1 {
		t.Fatalf("start/stops = %d, want 1", d.Stats.StartStops)
	}
}

func TestDriveAppendSeeksToEOD(t *testing.T) {
	cfg := idealCfg()
	cfg.SeekFixed = 3 * time.Second
	k := sim.NewKernel()
	d := NewDrive(k, "r", cfg, nil)
	m := NewMedia("t", 1000)
	m.append(mkBlocks(1, 100, 0))
	d.Load(m)
	k.Spawn("writer", func(p *sim.Proc) {
		// Head at 0; EOD at 100: seek (3s) + write 10 blocks (10s).
		reg, err := d.Append(p, mkBlocks(9, 10, 500))
		if err != nil {
			t.Error(err)
		}
		if reg.Start != 100 || reg.N != 10 {
			t.Errorf("region = %+v", reg)
		}
		if p.Now() != sim.Time(13*time.Second) {
			t.Errorf("now = %v, want 13s", p.Now())
		}
		// Second append: head already at EOD, no seek.
		d.Append(p, mkBlocks(9, 5, 600))
		if p.Now() != sim.Time(18*time.Second) {
			t.Errorf("now = %v, want 18s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.BlocksWritten != 15 {
		t.Fatalf("written = %d", d.Stats.BlocksWritten)
	}
}

func TestDriveSerializesConcurrentRequests(t *testing.T) {
	// A reader and an appender sharing one drive serialize.
	k := sim.NewKernel()
	d := NewDrive(k, "r", idealCfg(), nil)
	m := NewMedia("t", 1000)
	m.append(mkBlocks(1, 100, 0))
	d.Load(m)
	k.Spawn("reader", func(p *sim.Proc) { d.ReadAt(p, 0, 40) })
	k.Spawn("appender", func(p *sim.Proc) { d.Append(p, mkBlocks(2, 40, 0)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != sim.Time(80*time.Second) {
		t.Fatalf("makespan = %v, want 80s (serialized)", k.Now())
	}
}

func TestTwoDrivesOverlap(t *testing.T) {
	k := sim.NewKernel()
	d1 := NewDrive(k, "r", idealCfg(), nil)
	d2 := NewDrive(k, "s", idealCfg(), nil)
	m1, m2 := NewMedia("t1", 100), NewMedia("t2", 100)
	m1.append(mkBlocks(1, 50, 0))
	m2.append(mkBlocks(2, 50, 0))
	d1.Load(m1)
	d2.Load(m2)
	k.Spawn("r1", func(p *sim.Proc) { d1.ReadAt(p, 0, 50) })
	k.Spawn("r2", func(p *sim.Proc) { d2.ReadAt(p, 0, 50) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != sim.Time(50*time.Second) {
		t.Fatalf("makespan = %v, want 50s (parallel)", k.Now())
	}
}

func TestDriveNoMedia(t *testing.T) {
	k := sim.NewKernel()
	d := NewDrive(k, "r", idealCfg(), nil)
	k.Spawn("p", func(p *sim.Proc) {
		if _, err := d.ReadAt(p, 0, 1); err == nil {
			t.Error("read with no cartridge should fail")
		}
		if _, err := d.Append(p, mkBlocks(1, 1, 0)); err == nil {
			t.Error("append with no cartridge should fail")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DLT4000()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Ideal().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.NativeRate = 0
	if bad.Validate() == nil {
		t.Fatal("zero rate should be invalid")
	}
	bad = good
	bad.CompressionFactor = 0.5
	if bad.Validate() == nil {
		t.Fatal("compression < 1 should be invalid")
	}
	bad = good
	bad.SeekFixed = -time.Second
	if bad.Validate() == nil {
		t.Fatal("negative delay should be invalid")
	}
}

func TestDLT4000Calibration(t *testing.T) {
	// The calibrated profile reads 25%-compressible data at ~1.676 MB/s:
	// Table 3 Join III read S+R (7500 MB) in 4475 seconds.
	cfg := DLT4000()
	rate := cfg.EffectiveRate()
	secs := 7500.0 * 1e6 / rate
	if secs < 4300 || secs > 4650 {
		t.Fatalf("7500 MB at calibrated rate takes %.0f s, want ~4475 s", secs)
	}
}

func TestDriveReadOutOfRange(t *testing.T) {
	k := sim.NewKernel()
	cfg := idealCfg()
	cfg.BiDirectional = true
	d := NewDrive(k, "r", cfg, nil)
	m := NewMedia("t", 100)
	m.append(mkBlocks(1, 10, 0))
	d.Load(m)
	k.Spawn("p", func(p *sim.Proc) {
		// Every malformed request must come back as an error before any
		// head movement — not a panic out of the medium's block store.
		for _, c := range []struct{ addr, n int64 }{
			{8, 3},  // runs past EOD
			{10, 1}, // starts at EOD
			{-1, 1}, // negative address
			{0, -1}, // negative count
			{0, 11}, // longer than the recorded data
		} {
			if _, err := d.ReadAt(p, Addr(c.addr), c.n); err == nil {
				t.Errorf("ReadAt(%d, %d): want out-of-range error", c.addr, c.n)
			}
			if _, err := d.ReadRegionReverse(p, Region{Start: Addr(c.addr), N: c.n}); err == nil {
				t.Errorf("ReadRegionReverse(%d, %d): want out-of-range error", c.addr, c.n)
			}
		}
		// The drive still works after rejecting garbage.
		if blks, err := d.ReadAt(p, 0, 10); err != nil || len(blks) != 10 {
			t.Errorf("in-range read after rejections: %d blocks, err %v", len(blks), err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
