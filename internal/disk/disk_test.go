package disk

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/sim"
)

func mkBlocks(n int) []block.Block {
	out := make([]block.Block, n)
	for i := range out {
		b := block.NewBuilder(1)
		b.Append(block.Tuple{Key: uint64(i)})
		out[i] = b.Finish()
	}
	return out
}

// cfg2 returns a 2-disk array where each disk moves 1 block/second
// (aggregate 2 blocks/s) with no request overhead.
func cfg2(blocksPerDisk int64) Config {
	return Config{
		NumDisks:      2,
		AggregateRate: 2 * block.VirtualSize,
		BlocksPerDisk: blocksPerDisk,
	}
}

func TestValidate(t *testing.T) {
	if err := cfg2(10).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg2(10)
	bad.NumDisks = 0
	if bad.Validate() == nil {
		t.Fatal("want error for 0 disks")
	}
	bad = cfg2(10)
	bad.AggregateRate = 0
	if bad.Validate() == nil {
		t.Fatal("want error for 0 rate")
	}
	bad = cfg2(10)
	bad.BlocksPerDisk = 0
	if bad.Validate() == nil {
		t.Fatal("want error for 0 capacity")
	}
	if err := SCSI2Pair(100).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStripedTransferRunsAtAggregateRate(t *testing.T) {
	// 10 blocks over 2 disks at 1 block/s each: 5 s, not 10 s.
	k := sim.NewKernel()
	a, err := NewArray(k, cfg2(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("w", func(p *sim.Proc) {
		f, err := a.Create("f", nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Append(p, mkBlocks(10)); err != nil {
			t.Error(err)
		}
		if p.Now() != sim.Time(5*time.Second) {
			t.Errorf("append took %v, want 5s", p.Now())
		}
		got, err := f.ReadAt(p, 0, 10)
		if err != nil {
			t.Error(err)
		}
		if len(got) != 10 {
			t.Errorf("read %d blocks", len(got))
		}
		if p.Now() != sim.Time(10*time.Second) {
			t.Errorf("read finished at %v, want 10s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats.BlocksWritten != 10 || a.Stats.BlocksRead != 10 {
		t.Fatalf("stats = %+v", a.Stats)
	}
}

func TestSingleDiskPlacement(t *testing.T) {
	// 10 blocks on 1 of 2 disks: 10 s at the per-disk rate.
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg2(100), nil)
	k.Spawn("w", func(p *sim.Proc) {
		f, err := a.Create("f", []int{1})
		if err != nil {
			t.Error(err)
			return
		}
		f.Append(p, mkBlocks(10))
		if p.Now() != sim.Time(10*time.Second) {
			t.Errorf("append took %v, want 10s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestOverheadCharged(t *testing.T) {
	cfg := cfg2(100)
	cfg.RequestOverhead = time.Second
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg, nil)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := a.Create("f", []int{0})
		// Ten 1-block writes: each 1s overhead + 1s transfer = 20s.
		for i := 0; i < 10; i++ {
			f.Append(p, mkBlocks(1))
		}
		if p.Now() != sim.Time(20*time.Second) {
			t.Errorf("ten small writes took %v, want 20s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats.Requests != 10 || a.Stats.OverheadTime != 10*time.Second {
		t.Fatalf("stats = %+v", a.Stats)
	}
}

func TestLargeRequestAmortizesOverhead(t *testing.T) {
	cfg := cfg2(100)
	cfg.RequestOverhead = time.Second
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg, nil)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := a.Create("f", []int{0})
		// One 10-block write: 1s overhead + 10s transfer = 11s.
		f.Append(p, mkBlocks(10))
		if p.Now() != sim.Time(11*time.Second) {
			t.Errorf("one large write took %v, want 11s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentFilesOnDistinctDisksOverlap(t *testing.T) {
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg2(100), nil)
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("w", func(p *sim.Proc) {
			f, _ := a.Create("f", []int{i})
			f.Append(p, mkBlocks(10))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != sim.Time(10*time.Second) {
		t.Fatalf("makespan %v, want 10s (parallel disks)", k.Now())
	}
}

func TestConcurrentFilesOnSameDiskSerialize(t *testing.T) {
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg2(100), nil)
	for i := 0; i < 2; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			f, _ := a.Create("f", []int{0})
			f.Append(p, mkBlocks(10))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != sim.Time(20*time.Second) {
		t.Fatalf("makespan %v, want 20s (serialized disk)", k.Now())
	}
}

func TestSpaceAccounting(t *testing.T) {
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg2(10), nil) // 20 blocks total
	k.Spawn("w", func(p *sim.Proc) {
		f1, _ := a.Create("f1", nil)
		f1.Append(p, mkBlocks(12))
		if a.Used() != 12 || a.Free() != 8 {
			t.Errorf("used=%d free=%d", a.Used(), a.Free())
		}
		f2, _ := a.Create("f2", nil)
		f2.Append(p, mkBlocks(6))
		if a.HighWater() != 18 {
			t.Errorf("high water = %d, want 18", a.HighWater())
		}
		f1.Free()
		if a.Used() != 6 {
			t.Errorf("used after free = %d, want 6", a.Used())
		}
		f1.Free() // double free is a no-op
		if a.Used() != 6 {
			t.Errorf("used after double free = %d", a.Used())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.HighWater() != 18 {
		t.Fatalf("high water = %d, want 18", a.HighWater())
	}
}

func TestDiskFull(t *testing.T) {
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg2(5), nil) // 10 blocks total
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := a.Create("f", nil)
		if err := f.Append(p, mkBlocks(11)); !errors.Is(err, fault.ErrDiskFull) {
			t.Errorf("err = %v, want ErrDiskFull", err)
		}
		// A failed append charges nothing.
		if a.Used() != 0 {
			t.Errorf("used = %d after failed append", a.Used())
		}
		// Single-disk file bounded by that disk's capacity.
		f1, _ := a.Create("f1", []int{0})
		if err := f1.Append(p, mkBlocks(6)); !errors.Is(err, fault.ErrDiskFull) {
			t.Errorf("err = %v, want ErrDiskFull for single-disk overflow", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadBounds(t *testing.T) {
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg2(100), nil)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := a.Create("f", nil)
		f.Append(p, mkBlocks(5))
		if _, err := f.ReadAt(p, 3, 3); err == nil {
			t.Error("want error reading past end")
		}
		if _, err := f.ReadAt(p, -1, 1); err == nil {
			t.Error("want error for negative offset")
		}
		got, err := f.ReadAt(p, 2, 3)
		if err != nil || len(got) != 3 {
			t.Errorf("ReadAt: %d blocks, err %v", len(got), err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateErrors(t *testing.T) {
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg2(100), nil)
	if _, err := a.Create("f", []int{}); err == nil {
		t.Fatal("empty placement should fail")
	}
	if _, err := a.Create("f", []int{7}); err == nil {
		t.Fatal("bad drive id should fail")
	}
}

func TestDataRoundTripPreserved(t *testing.T) {
	k := sim.NewKernel()
	a, _ := NewArray(k, cfg2(100), nil)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := a.Create("f", nil)
		in := mkBlocks(7)
		f.Append(p, in)
		out, err := f.ReadAt(p, 0, 7)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range in {
			_, inT := in[i].MustDecode()
			_, outT := out[i].MustDecode()
			if inT[0].Key != outT[0].Key {
				t.Errorf("block %d key %d != %d", i, outT[0].Key, inT[0].Key)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllocatorConservation(t *testing.T) {
	// Random interleavings of file growth and frees never lose or
	// leak space, and appends only fail when the array is genuinely
	// out of room.
	f := func(ops []uint16, capSeed uint8) bool {
		capacity := int64(capSeed%32)*2 + 16
		k := sim.NewKernel()
		a, err := NewArray(k, Config{
			NumDisks:      2,
			AggregateRate: 2 * block.VirtualSize,
			BlocksPerDisk: capacity / 2,
		}, nil)
		if err != nil {
			return false
		}
		ok := true
		k.Spawn("driver", func(p *sim.Proc) {
			var live []*File
			var ledger int64
			for _, op := range ops {
				switch {
				case op%3 != 0 || len(live) == 0:
					n := int64(op%7) + 1
					f, err := a.Create("f", nil)
					if err != nil {
						ok = false
						return
					}
					err = f.Append(p, mkBlocks(int(n)))
					if errors.Is(err, fault.ErrDiskFull) {
						if a.Free() >= n {
							ok = false // spurious full
							return
						}
						continue
					}
					if err != nil {
						ok = false
						return
					}
					live = append(live, f)
					ledger += n
				default:
					idx := int(op) % len(live)
					ledger -= live[idx].Len()
					live[idx].Free()
					live = append(live[:idx], live[idx+1:]...)
				}
				if a.Used() != ledger || a.Free() != a.TotalCapacity()-ledger {
					ok = false
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
