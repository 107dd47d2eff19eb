package filedev

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/device/faultfile"
	"repro/internal/device/simdev"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tape"
)

// countScratchDirs counts leftover device scratch directories under a
// backend root — the leak detector for the cleanup satellites.
func countScratchDirs(t *testing.T, root string) int {
	t.Helper()
	ents, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() {
			n++
		}
	}
	return n
}

// TestFreedFileReturnsErrors: on either backend, operations on a freed
// scratch file must be typed errors, not panics, so a fault-injected
// join that races recovery against cleanup degrades instead of
// crashing the process.
func TestFreedFileReturnsErrors(t *testing.T) {
	for _, b := range []device.Backend{simdev.Backend{}, New(t.TempDir())} {
		t.Run(b.Name(), func(t *testing.T) { freedFileReturnsErrors(t, b) })
	}
}

func freedFileReturnsErrors(t *testing.T, b device.Backend) {
	k := sim.NewKernel()
	st, err := b.NewStore(k, device.StoreConfig{NumDisks: 1, AggregateRate: 4, BlocksPerDisk: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	run(t, k, func(p *sim.Proc) {
		f, err := st.Create("victim", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(3, 3, 0)); err != nil {
			t.Fatal(err)
		}
		f.Free()
		f.Free() // double free stays a no-op
		if err := f.Append(p, mkBlocks(3, 1, 0)); !errors.Is(err, disk.ErrFreed) {
			t.Errorf("Append after Free: err = %v, want ErrFreed", err)
		}
		if _, err := f.ReadAt(p, 0, 1); !errors.Is(err, disk.ErrFreed) {
			t.Errorf("ReadAt after Free: err = %v, want ErrFreed", err)
		}
	})
}

// TestSharedPairConstructorLeak: when the second drive of a shared
// pair fails to construct, the first drive's scratch directory (and
// its I/O worker) must be released, not leaked.
func TestSharedPairConstructorLeak(t *testing.T) {
	root := t.TempDir()
	b := New(root)
	k := sim.NewKernel()

	calls := 0
	orig := mkdirTemp
	mkdirTemp = func(dir, pattern string) (string, error) {
		calls++
		if calls == 2 {
			return "", fmt.Errorf("injected mkdir failure")
		}
		return orig(dir, pattern)
	}
	defer func() { mkdirTemp = orig }()

	if _, _, err := b.NewSharedDrivePair(k, "A", "B", device.Ideal()); err == nil {
		t.Fatal("want constructor error")
	}
	if n := countScratchDirs(t, root); n != 0 {
		t.Errorf("%d scratch dirs leaked after failed pair construction", n)
	}
}

// TestCloseRemovesScratchDirs: Close on drives and stores — including
// ones that were never loaded or used, and repeated Close — must leave
// no scratch directories behind.
func TestCloseRemovesScratchDirs(t *testing.T) {
	root := t.TempDir()
	b := New(root)
	k := sim.NewKernel()
	d1, err := b.NewDrive(k, "R", device.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	d2, d3, err := b.NewSharedDrivePair(k, "A", "B", device.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.NewStore(k, device.StoreConfig{NumDisks: 1, AggregateRate: 4, BlocksPerDisk: 10})
	if err != nil {
		t.Fatal(err)
	}
	d1.Load(tape.NewMedia("t1", 100))
	run(t, k, func(p *sim.Proc) {
		if _, err := d1.Append(p, mkBlocks(1, 4, 0)); err != nil {
			t.Fatal(err)
		}
		f, err := st.Create("s", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, mkBlocks(3, 2, 0)); err != nil {
			t.Fatal(err)
		}
	})
	if n := countScratchDirs(t, root); n != 4 {
		t.Fatalf("%d scratch dirs before close, want 4", n)
	}
	for _, c := range []interface{ Close() error }{d1, d2, d3, st} {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := c.Close(); err != nil { // idempotent
			t.Errorf("second Close: %v", err)
		}
	}
	if n := countScratchDirs(t, root); n != 0 {
		t.Errorf("%d scratch dirs leaked after Close", n)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"", SyncInterval, false},
		{"interval", SyncInterval, false},
		{"none", SyncNone, false},
		{"always", SyncAlways, false},
		{"fsync", 0, true},
	} {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	if SyncAlways.String() != "always" || SyncNone.String() != "none" || SyncInterval.String() != "interval" {
		t.Error("SyncPolicy.String mismatch")
	}
}

// TestSyncPolicies drives writes through each fsync policy; they must
// all round-trip content, and the syncer's interval counter must
// reset after a flush.
func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNone, SyncInterval, SyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			b := New(t.TempDir())
			b.Sync = pol
			b.syncEvery = 256 // tiny threshold: interval mode flushes mid-test
			k := sim.NewKernel()
			d, err := b.NewDrive(k, "R", device.Ideal())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			d.Load(tape.NewMedia("t1", 1000))
			run(t, k, func(p *sim.Proc) {
				for i := 0; i < 8; i++ {
					if _, err := d.Append(p, mkBlocks(1, 4, uint64(i*4))); err != nil {
						t.Fatal(err)
					}
				}
				blks, err := d.ReadAt(p, 0, 32)
				if err != nil || len(blks) != 32 {
					t.Fatalf("ReadAt: %d blocks, err %v", len(blks), err)
				}
				if keyOf(t, blks[31]) != 31 {
					t.Errorf("block 31 key = %d", keyOf(t, blks[31]))
				}
			})
		})
	}
}

func TestSyncerIntervalResets(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(dir + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ff := faultfile.Wrap(f)
	s := syncer{policy: SyncInterval, every: 100}
	if err := s.wrote(ff, 60); err != nil || s.dirty != 60 {
		t.Fatalf("dirty = %d, err %v", s.dirty, err)
	}
	if err := s.wrote(ff, 60); err != nil || s.dirty != 0 {
		t.Fatalf("after flush: dirty = %d, err %v", s.dirty, err)
	}
	if err := s.flush(ff); err != nil {
		t.Fatal(err)
	}
}

// runWorkload exercises one backend with two drives and a store doing
// interleaved transfers from two procs, returning the keys read back.
func runWorkload(t *testing.T, b device.Backend) []uint64 {
	t.Helper()
	k := sim.NewKernel()
	dR, err := b.NewDrive(k, "R", biDirCfg())
	if err != nil {
		t.Fatal(err)
	}
	dS, err := b.NewDrive(k, "S", biDirCfg())
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.NewStore(k, device.StoreConfig{NumDisks: 2, AggregateRate: 4, BlocksPerDisk: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		dR.Close()
		dS.Close()
		st.Close()
	}()
	dR.Load(tape.NewMedia("tR", 1000))
	dS.Load(tape.NewMedia("tS", 1000))

	var keys []uint64
	collect := func(drive device.Drive, tag byte, base uint64) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			f, err := st.Create(fmt.Sprintf("spill-%d", tag), nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 4; i++ {
				if _, err := drive.Append(p, mkBlocks(tag, 8, base+uint64(i*8))); err != nil {
					t.Error(err)
					return
				}
			}
			blks, err := drive.ReadAt(p, 0, 32)
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.Append(p, blks); err != nil {
				t.Error(err)
				return
			}
			out, err := f.ReadAt(p, 0, int64(len(blks)))
			if err != nil {
				t.Error(err)
				return
			}
			for _, blk := range out {
				keys = append(keys, keyOf(t, blk))
			}
			f.Free()
		}
	}
	k.Spawn("r", collect(dR, 1, 0))
	k.Spawn("s", collect(dS, 2, 1000))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestSyncAsyncEquivalence: the async submit path must deliver the
// same bytes as the simulator for an interleaved two-drive workload.
// The two procs' results are compared as sets: the file backend
// legitimately interleaves their completions differently (wall-clock
// transfer times), but every block must arrive intact.
func TestSyncAsyncEquivalence(t *testing.T) {
	async := runWorkload(t, New(t.TempDir()))
	ref := runWorkload(t, simdev.Backend{})
	slices.Sort(async)
	slices.Sort(ref)
	if len(async) != len(ref) {
		t.Fatalf("async read %d keys, sim %d", len(async), len(ref))
	}
	for i := range async {
		if async[i] != ref[i] {
			t.Fatalf("key %d: async %d vs sim %d", i, async[i], ref[i])
		}
	}
	if len(async) != 64 {
		t.Fatalf("read %d keys, want 64", len(async))
	}
}

// TestWallStatsExposure: the backend reports per-device wall busy
// time through the WallStatser interface.
func TestWallStatsExposure(t *testing.T) {
	b := New(t.TempDir())
	runWorkload(t, b)
	var ws device.WallStatser = b
	st := ws.WallStats()
	if st.Busy <= 0 || st.Union <= 0 {
		t.Fatalf("WallStats = %+v, want nonzero busy", st)
	}
	devs := map[string]bool{}
	for _, d := range st.PerDevice {
		devs[d.Device] = true
	}
	for _, want := range []string{"tape:R", "tape:S", "disk"} {
		if !devs[want] {
			t.Errorf("WallStats missing device %q (have %v)", want, st.PerDevice)
		}
	}
	if o := st.Overlap(); o < 0 || o >= 1 {
		t.Errorf("Overlap() = %v, want [0,1)", o)
	}
}

// TestReadErrorNamesRecord truncates a record in the middle of a read
// that starts past record 0: the error names the record's logical
// number, not its position inside the request.
func TestReadErrorNamesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.dat")
	r, err := New(t.TempDir()).createRecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	w, err := r.planAppend(0, mkBlocks(1, 40, 0))
	if err == nil {
		err = r.execWrites(w.ops)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Cut record 33 a few bytes into its payload; 34 on are gone too.
	if err := os.Truncate(path, r.index[33]+recHeader+3); err != nil {
		t.Fatal(err)
	}
	ops, err := r.planRead(4, 30)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.execReads(ops)
	if !errors.Is(err, fault.ErrCorrupt) || !strings.Contains(err.Error(), "record 33 truncated") {
		t.Fatalf("read [4,34) of a file cut in record 33: %v, want record 33 truncated", err)
	}
}
