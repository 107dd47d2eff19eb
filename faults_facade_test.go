package tapejoin

import (
	"strings"
	"testing"
	"time"
)

func TestConfigFaultsRecoverAndReport(t *testing.T) {
	clean := func() *Result {
		sys := quickSystem(t, 1, 4)
		r, s := makeRelations(t, sys)
		res, err := sys.Join(CTTGH, r, s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	sys, err := NewSystem(Config{
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		// R is 2 MB = 32 blocks, S is 8 MB = 128 blocks, both at the
		// start of their cartridges.
		Faults: "transient=R:5:2,corrupt=S:40:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	r, s := makeRelations(t, sys)
	want := ExpectedMatches(r, s)
	res, err := sys.Join(CTTGH, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Matches != want {
		t.Fatalf("matches = %d, want %d", res.Stats.Matches, want)
	}
	if res.Stats.Faults < 3 {
		t.Fatalf("Faults = %d, want >= 3", res.Stats.Faults)
	}
	if res.Stats.Retries < 3 {
		t.Fatalf("Retries = %d, want >= 3", res.Stats.Retries)
	}
	if res.Stats.RecoveryTime <= 0 {
		t.Fatal("no recovery time charged")
	}
	if res.Stats.Response <= clean.Stats.Response {
		t.Fatalf("faulted response %v not above clean %v",
			res.Stats.Response, clean.Stats.Response)
	}

	// Each Join parses a fresh schedule, so a second join on the same
	// system hits the same faults again (runs stay reproducible).
	r2, s2 := makeRelations(t, sys)
	res2, err := sys.Join(CTTGH, r2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Faults != res.Stats.Faults || res2.Stats.Retries != res.Stats.Retries {
		t.Fatalf("second join saw different faults: %d/%d vs %d/%d",
			res2.Stats.Faults, res2.Stats.Retries, res.Stats.Faults, res.Stats.Retries)
	}
}

func TestConfigFaultsParseErrorSurfaces(t *testing.T) {
	sys, err := NewSystem(Config{
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		Faults: "bogus=1",
	})
	if err != nil {
		t.Fatal(err) // spec errors surface at Join, when parsing happens
	}
	r, s := makeRelations(t, sys)
	if _, err := sys.Join(DTNB, r, s); err == nil ||
		!strings.Contains(err.Error(), "unknown directive") {
		t.Fatalf("err = %v, want fault-spec parse error", err)
	}
}

func TestConfigDisableRecoveryMakesFaultsFatal(t *testing.T) {
	sys, err := NewSystem(Config{
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		Faults:          "transient=R:5:1",
		DisableRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, s := makeRelations(t, sys)
	if _, err := sys.Join(DTNB, r, s); err == nil {
		t.Fatal("transient fault with recovery disabled should fail the join")
	}
}

// TestDisableRecoveryFatalOnFileBackend: with recovery disabled the
// first device fault aborts the join on the file backend too. The
// backend's own retry of a failed syscall is recovery as well, so it
// must not absorb the fault.
func TestDisableRecoveryFatalOnFileBackend(t *testing.T) {
	sys, err := NewSystem(Config{
		Backend: "file", BackendDir: t.TempDir(),
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		Faults:          "oserr=disk:2",
		DisableRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r, s := makeRelations(t, sys)
	res, err := sys.Join(DTGH, r, s)
	if err == nil {
		t.Fatalf("join succeeded with Faults=%d; an OS fault with recovery disabled should fail it", res.Stats.Faults)
	}
}

// TestInjectedStallAppliedAndCounted: a stall directive holds the device
// it names, whichever that is, and counts as one injected fault. The
// sim backend's disk array takes a stall on the array-wide path and on
// each drive; the file backend's store has no per-drive path.
func TestInjectedStallAppliedAndCounted(t *testing.T) {
	for _, c := range []struct{ backend, spec string }{
		{"sim", "stall=R:5s:1"}, {"sim", "stall=disk:5s:1"}, {"sim", "stall=disk0:5s:1"},
		{"file", "stall=R:5s:1"}, {"file", "stall=disk:5s:1"},
	} {
		t.Run(c.backend+"/"+c.spec, func(t *testing.T) {
			run := func(faults string) Stats {
				sys, err := NewSystem(Config{
					MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
					Backend: c.backend, BackendDir: t.TempDir(), Faults: faults,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				r, s := makeRelations(t, sys)
				res, err := sys.Join(DTNB, r, s)
				if err != nil {
					t.Fatal(err)
				}
				return res.Stats
			}
			clean, stalled := run(""), run(c.spec)
			if stalled.Faults != 1 {
				t.Errorf("Faults = %d, want 1", stalled.Faults)
			}
			// The file backend's transfers take measured wall time, so
			// only the sim backend's response time is exact.
			if c.backend == "sim" && stalled.Response < clean.Response+5*time.Second {
				t.Errorf("response %v, want at least 5s above the clean %v", stalled.Response, clean.Response)
			}
		})
	}
}
