package tape

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// mkNamedVolumes builds a volume set of n cartridges with distinct
// names.
func mkNamedVolumes(t *testing.T, n int, capEach int64) *MultiVolume {
	t.Helper()
	vols := make([]*Media, n)
	for i := range vols {
		vols[i] = NewMedia("vol"+string(rune('A'+i)), capEach)
	}
	mv, err := NewMultiVolume("set", vols...)
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

func TestMultiVolumeMediaErrorNamesCartridge(t *testing.T) {
	mv := mkNamedVolumes(t, 3, 10)
	if _, err := mv.AppendSetup(mkBlocks(1, 25, 0)); err != nil {
		t.Fatal(err)
	}
	// A hard media error on the SECOND cartridge, at its local block 3
	// (global address 13).
	sched, err := fault.Parse("hard=R:13")
	if err != nil {
		t.Fatal(err)
	}

	k := sim.NewKernel()
	d := NewDrive(k, "R", idealCfg(), nil)
	d.Load(mv)
	d.SetInjector(sched)
	k.Spawn("p", func(p *sim.Proc) {
		// A read inside the healthy first cartridge is fine.
		if _, err := d.ReadAt(p, 0, 10); err != nil {
			t.Errorf("volA read: %v", err)
		}
		// A read covering the bad spot fails as a media error of the
		// drive.
		_, err := d.ReadAt(p, 10, 10)
		if err == nil {
			t.Error("read over injected media error succeeded")
			return
		}
		if !errors.Is(err, fault.ErrMedia) {
			t.Errorf("err = %v, want fault.ErrMedia", err)
		}
		if !strings.Contains(err.Error(), `"R"`) {
			t.Errorf("err %q does not identify the drive", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiVolumeTransientRecoversAcrossBoundary(t *testing.T) {
	mv := mkNamedVolumes(t, 2, 10)
	if _, err := mv.AppendSetup(mkBlocks(1, 20, 0)); err != nil {
		t.Fatal(err)
	}

	// The drive's fault schedule fails the first read covering global
	// address 12 — inside the second cartridge, on a request that
	// crosses the volume boundary — then clears.
	sched, err := fault.Parse("transient=R:12")
	if err != nil {
		t.Fatal(err)
	}

	k := sim.NewKernel()
	d := NewDrive(k, "R", idealCfg(), nil)
	d.Load(mv)
	d.SetInjector(sched)
	k.Spawn("p", func(p *sim.Proc) {
		_, err := d.ReadAt(p, 5, 10) // spans blocks 5..14 over both volumes
		if err == nil {
			t.Error("first read should hit the transient fault")
			return
		}
		if !errors.Is(err, fault.ErrTransient) {
			t.Errorf("err = %v, want transient classification", err)
		}
		if !strings.Contains(err.Error(), `"R"`) {
			t.Errorf("err %q does not identify the drive", err)
		}
		// Reposition + re-read: the identical request now succeeds and
		// the volume boundary is still crossed correctly.
		blks, err := d.ReadAt(p, 5, 10)
		if err != nil {
			t.Errorf("re-read after transient: %v", err)
			return
		}
		for i, blk := range blks {
			_, tuples := blk.MustDecode()
			if want := uint64(5 + i); tuples[0].Key != want {
				t.Errorf("block %d: key %d, want %d", i, tuples[0].Key, want)
			}
		}
		if d.Stats.Faults != 1 {
			t.Errorf("Faults = %d, want 1", d.Stats.Faults)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
