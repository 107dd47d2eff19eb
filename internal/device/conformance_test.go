package device_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/filedev"
	"repro/internal/device/simdev"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tape"
)

// report is what one backend reports for the conformance script: the
// request counters of every device, the kinds of its device events in
// record order, and the HELP/TYPE lines of its tape_*/disk_* series.
type report struct {
	Drives  map[string][5]int64 // Requests, BlocksRead, BlocksWritten, Seeks, Exchanges
	Store   [4]int64            // Requests, BlocksRead, BlocksWritten, HighWater
	Used    int64               // allocated blocks after the script
	Kinds   []obs.Kind
	Headers []string
}

func blocks(n int) []block.Block {
	out := make([]block.Block, n)
	for i := range out {
		b := block.NewBuilder(1)
		b.Append(block.Tuple{Key: uint64(i)})
		out[i] = b.Finish()
	}
	return out
}

// runScript drives one backend through the same request script: an
// append, a read back, a long seek, a switch between the two drives of
// a shared pair, and a scratch file's create/append/read/free.
func runScript(t *testing.T, b device.Backend) report {
	t.Helper()
	k := sim.NewKernel()
	tr, reg := obs.NewTracker(), obs.NewRegistry()
	cfg := device.DLT4000()
	solo, err := b.NewDrive(k, "T", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb, err := b.NewSharedDrivePair(k, "A", "B", cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.NewStore(k, device.StoreConfig{
		NumDisks: 1, AggregateRate: 2e6, RequestOverhead: 1, BlocksPerDisk: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	drives := []device.Drive{solo, ra, rb}
	for _, d := range drives {
		m := tape.NewMedia("m-"+d.Name(), 1000)
		if _, err := m.AppendSetup(blocks(100)); err != nil {
			t.Fatal(err)
		}
		d.Load(m)
	}
	for _, d := range []device.Instrumented{solo, ra, rb, st} {
		d.SetTracker(tr)
		d.SetMetrics(reg)
	}
	must := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	k.Spawn("script", func(p *sim.Proc) {
		_, err := solo.Append(p, blocks(10))
		must(err)
		_, err = solo.ReadAt(p, 100, 10)
		must(err)
		_, err = solo.ReadAt(p, 0, 5) // long seek back
		must(err)
		_, err = ra.ReadAt(p, 0, 5) // first use of the transport: free
		must(err)
		_, err = rb.ReadAt(p, 0, 5) // switch: exchange, head at 0
		must(err)
		_, err = ra.ReadAt(p, 50, 5) // switch back, then a seek
		must(err)
		f, err := st.Create("scratch", nil)
		if err != nil {
			t.Error(err)
			return
		}
		must(f.Append(p, blocks(8)))
		_, err = f.ReadAt(p, 2, 4)
		must(err)
		f.Free()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rep := report{Drives: map[string][5]int64{}}
	for _, d := range drives {
		s := d.DriveStats()
		rep.Drives[d.Name()] = [5]int64{s.Requests, s.BlocksRead, s.BlocksWritten, s.Seeks, s.Exchanges}
	}
	ds := st.DiskStats()
	rep.Store = [4]int64{ds.Requests, ds.BlocksRead, ds.BlocksWritten, st.HighWater()}
	rep.Used = st.TotalCapacity() - st.Free()
	for _, e := range tr.Events() {
		rep.Kinds = append(rep.Kinds, e.Kind)
	}
	for _, line := range strings.Split(reg.Exposition(), "\n") {
		if strings.HasPrefix(line, "# ") {
			if f := strings.Fields(line); strings.HasPrefix(f[2], "tape_") || strings.HasPrefix(f[2], "disk_") {
				rep.Headers = append(rep.Headers, line)
			}
		}
	}
	for _, d := range []interface{ Close() error }{solo, ra, rb, st} {
		d.Close()
	}
	return rep
}

// runProc runs fn as the only proc of k.
func runProc(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("case", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// newDrive builds a DLT-4000 drive on b, closed when the test ends.
func newDrive(t *testing.T, b device.Backend, k *sim.Kernel, name string) device.Drive {
	t.Helper()
	d, err := b.NewDrive(k, name, device.DLT4000())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// newStore builds a store of n disks on b, closed when the test ends.
func newStore(t *testing.T, b device.Backend, k *sim.Kernel, n int) device.Store {
	t.Helper()
	st, err := b.NewStore(k, device.StoreConfig{
		NumDisks: n, AggregateRate: 2e6, RequestOverhead: 1, BlocksPerDisk: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// multiVolumeRead reads across the boundary of a two-cartridge volume
// set: the drive must exchange cartridges once.
func multiVolumeRead(t *testing.T, b device.Backend) any {
	k := sim.NewKernel()
	d := newDrive(t, b, k, "V")
	v0, v1 := tape.NewMedia("v0", 50), tape.NewMedia("v1", 50)
	v0.AppendSetup(blocks(50))
	v1.AppendSetup(blocks(10))
	mv, err := tape.NewMultiVolume("set", v0, v1)
	if err != nil {
		t.Fatal(err)
	}
	d.Load(mv)
	var keys []uint64
	runProc(t, k, func(p *sim.Proc) {
		blks, err := d.ReadAt(p, 45, 10)
		if err != nil {
			t.Error(err)
		}
		for _, b := range blks {
			_, ts := b.MustDecode()
			keys = append(keys, ts[0].Key)
		}
	})
	s := d.DriveStats()
	if s.Exchanges != 1 {
		t.Errorf("%s: %d exchanges, want 1", b.Name(), s.Exchanges)
	}
	return []any{keys, s.Requests, s.BlocksRead, s.Seeks, s.Exchanges, s.StartStops}
}

// idleGap resumes a stream in place after an idle gap beyond the
// drive buffer's StartStopHide: the drive must charge one stop/start.
func idleGap(t *testing.T, b device.Backend) any {
	k := sim.NewKernel()
	d := newDrive(t, b, k, "T")
	m := tape.NewMedia("m", 100)
	m.AppendSetup(blocks(40))
	d.Load(m)
	runProc(t, k, func(p *sim.Proc) {
		if _, err := d.ReadAt(p, 0, 10); err != nil {
			t.Error(err)
		}
		p.Hold(d.Config().StartStopHide + time.Second)
		if _, err := d.ReadAt(p, 10, 10); err != nil {
			t.Error(err)
		}
	})
	s := d.DriveStats()
	if s.StartStops != 1 {
		t.Errorf("%s: %d stop/starts, want 1", b.Name(), s.StartStops)
	}
	return []any{s.Requests, s.Seeks, s.StartStops, s.StartStopTime}
}

// diskLoss kills disk 1 of a two-disk store (diskfail=1@0s) under a
// striped file: the file is lost, the store reports the dead disk and
// a halved capacity, and a file created afterwards lives on the
// survivor.
func diskLoss(t *testing.T, b device.Backend) any {
	k := sim.NewKernel()
	st := newStore(t, b, k, 2)
	sched, err := fault.Parse("diskfail=1@0s")
	if err != nil {
		t.Fatal(err)
	}
	var out []any
	runProc(t, k, func(p *sim.Proc) {
		f, err := st.Create("striped", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, blocks(8)); err != nil {
			t.Error(err)
		}
		st.SetInjector(sched)
		_, err = f.ReadAt(p, 0, 8)
		if !errors.Is(err, fault.ErrDeviceLost) || !f.Lost() || !reflect.DeepEqual(st.DeadDisks(), []int{1}) {
			t.Errorf("%s: read after diskfail: %v, lost %v, dead disks %v", b.Name(), err, f.Lost(), st.DeadDisks())
		}
		out = append(out, errText(err), errors.Is(err, fault.ErrDeviceLost), f.Lost(),
			st.DeadDisks(), st.TotalCapacity(), st.Free())
		g, err := st.Create("after", nil)
		if err != nil {
			t.Fatal(err)
		}
		err = g.Append(p, blocks(4))
		out = append(out, g.Name(), errText(err), g.Lost(), st.Free())
	})
	return out
}

// freedRead reads a freed scratch file: a typed error on every
// backend.
func freedRead(t *testing.T, b device.Backend) any {
	k := sim.NewKernel()
	st := newStore(t, b, k, 1)
	var out []any
	runProc(t, k, func(p *sim.Proc) {
		f, err := st.Create("gone", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, blocks(4)); err != nil {
			t.Error(err)
		}
		f.Free()
		_, err = f.ReadAt(p, 0, 2)
		if !errors.Is(err, disk.ErrFreed) {
			t.Errorf("%s: read of a freed file: %v, want disk.ErrFreed", b.Name(), err)
		}
		out = append(out, errText(err), errors.Is(err, disk.ErrFreed), st.Free())
	})
	return out
}

// TestBackendsMeterAlike runs the same request scripts on the
// simulator and the file backend: both must count the same requests,
// blocks, seeks, exchanges and stop/starts, emit the same event kinds,
// export the same device series, lose the same disks and fail the
// same requests.
func TestBackendsMeterAlike(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T, device.Backend) any
	}{
		{"multi-volume read", multiVolumeRead},
		{"idle gap", idleGap},
		{"disk loss", diskLoss},
		{"freed file", freedRead},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim, file := c.run(t, simdev.Backend{}), c.run(t, filedev.New(t.TempDir()))
			if !reflect.DeepEqual(sim, file) {
				t.Errorf("backends disagree:\nsim:  %v\nfile: %v", sim, file)
			}
		})
	}
	sim := runScript(t, simdev.Backend{})
	file := runScript(t, filedev.New(t.TempDir()))
	if !reflect.DeepEqual(sim, file) {
		t.Errorf("backends disagree:\nsim:  %+v\nfile: %+v", sim, file)
	}
	if got := sim.Drives["B"][4] + sim.Drives["A"][4]; got != 2 {
		t.Errorf("shared-pair exchanges = %d, want 2", got)
	}
	if sim.Drives["T"][3] == 0 {
		t.Error("script charged no seek")
	}
	if len(sim.Headers) == 0 {
		t.Error("no device series exported")
	}
}

// TestSimRecycleKeepsStoredBlocks: the simulator's reads deliver the
// blocks its media and scratch files store, so handing a run back with
// Recycle must leave them intact; a second read returns the same bytes.
func TestSimRecycleKeepsStoredBlocks(t *testing.T) {
	k := sim.NewKernel()
	d := newDrive(t, simdev.Backend{}, k, "T")
	m := tape.NewMedia("m", 1000)
	want := blocks(40)
	if _, err := m.AppendSetup(want); err != nil {
		t.Fatal(err)
	}
	d.Load(m)
	st := newStore(t, simdev.Backend{}, k, 2)
	// The media store want's blocks themselves; compare with a copy.
	orig := make([]block.Block, len(want))
	for i, b := range want {
		orig[i] = append(block.Block(nil), b...)
	}
	// readTwice reads a run, recycles it and reads it again: both reads
	// must equal the original bytes.
	readTwice := func(what string, read func() ([]block.Block, error), recycle func([]block.Block)) {
		for i := 0; i < 2; i++ {
			got, err := read()
			if err != nil {
				t.Fatalf("%s read %d: %v", what, i, err)
			}
			if len(got) != 32 || !reflect.DeepEqual(got, orig[:32]) {
				t.Fatalf("%s read %d after Recycle: stored blocks changed", what, i)
			}
			recycle(got)
		}
	}
	runProc(t, k, func(p *sim.Proc) {
		readTwice("drive", func() ([]block.Block, error) { return d.ReadAt(p, 0, 32) }, d.Recycle)
		f, err := st.Create("f", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, want[:32]); err != nil {
			t.Fatal(err)
		}
		readTwice("store", func() ([]block.Block, error) { return f.ReadAt(p, 0, 32) }, f.Recycle)
	})
}
