package device_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/filedev"
	"repro/internal/device/simdev"
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

// TestBackendsMeterAlike runs one request script on the simulator and
// the file backend: both must count the same requests, blocks, seeks
// and exchanges, emit the same event kinds, and export the same
// device series.
func TestBackendsMeterAlike(t *testing.T) {
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
