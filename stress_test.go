package tapejoin

import (
	"fmt"
	"sync"
	"testing"
)

// stressOutcome is the deterministic part of one stressed join: the
// join result and the fault/recovery counters. Wall-clock timings are
// excluded — on the file backend they legitimately vary run to run.
type stressOutcome struct {
	matches int64
	faults  int64
	retries int64
}

// stressRound runs n concurrent file-backend joins, each with its own
// system (kernel, device workers, scratch dir) and a seeded fault
// schedule chosen by faults(i, method), alternating the two
// concurrent methods. It fails the test on any join or verification
// error, or on an output hash other than a clean sim run's over the
// same relations, and returns the per-slot outcomes.
func stressRound(t *testing.T, n int, faults func(i int, m Method) string) []stressOutcome {
	t.Helper()
	out := make([]stressOutcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			method := CDTGH
			if i%2 == 1 {
				method = CTTGH
			}
			ref, _, err := stressJoin(Config{}, i, method)
			if err != nil {
				t.Errorf("join %d (%s) sim reference: %v", i, method, err)
				return
			}
			res, want, err := stressJoin(Config{Backend: "file", BackendDir: t.TempDir(), Faults: faults(i, method)}, i, method)
			if err != nil {
				t.Errorf("join %d (%s): %v", i, method, err)
				return
			}
			if res.Stats.Matches != want {
				t.Errorf("join %d (%s): matches = %d, want %d", i, method, res.Stats.Matches, want)
				return
			}
			if res.Stats.OutputHash != ref.Stats.OutputHash {
				t.Errorf("join %d (%s): output hash %#x, sim reference %#x", i, method,
					res.Stats.OutputHash, ref.Stats.OutputHash)
				return
			}
			out[i] = stressOutcome{
				matches: res.Stats.Matches,
				faults:  res.Stats.Faults,
				retries: res.Stats.Retries,
			}
		}()
	}
	wg.Wait()
	return out
}

// stressJoin runs slot i's join on cfg's backend and faults, over
// relations seeded by i, and returns its result and the expected
// cardinality.
func stressJoin(cfg Config, i int, method Method) (*Result, int64, error) {
	cfg.MemoryMB, cfg.DiskMB, cfg.Profile = 1, 4, IdealTape
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer sys.Close()
	tR, err := sys.NewTape("R-tape", 32)
	if err != nil {
		return nil, 0, err
	}
	tS, err := sys.NewTape("S-tape", 32)
	if err != nil {
		return nil, 0, err
	}
	r, err := sys.CreateRelation(tR, RelationConfig{
		Name: "R", SizeMB: 2, KeySpace: 4000, Seed: int64(1 + i),
	})
	if err != nil {
		return nil, 0, err
	}
	s, err := sys.CreateRelation(tS, RelationConfig{
		Name: "S", SizeMB: 8, KeySpace: 4000, Seed: int64(100 + i),
	})
	if err != nil {
		return nil, 0, err
	}
	res, err := sys.Join(method, r, s)
	return res, ExpectedMatches(r, s), err
}

// TestFileBackendConcurrentJoinStress drives N fault-injected joins
// through the file backend's async I/O engine at once and repeats the
// round, asserting every join recovers to the exact expected
// cardinality and that the deterministic outcome (matches, faults,
// retries) is identical across rounds. Under -race this is the
// token/completion handoff stress: many kernels, many device workers,
// real OS I/O and recovery retries all in flight together.
func TestFileBackendConcurrentJoinStress(t *testing.T) {
	faults := func(int, Method) string { return "transient=R:5:2,corrupt=S:40:1" }
	const n = 4
	first := stressRound(t, n, faults)
	if t.Failed() {
		t.FailNow()
	}
	second := stressRound(t, n, faults)
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("join %d: outcome changed across rounds: %+v vs %+v", i, first[i], second[i])
		}
	}
	if testing.Verbose() {
		for i, o := range first {
			fmt.Printf("join %d: %d matches, %d faults, %d retries\n", i, o.matches, o.faults, o.retries)
		}
	}
}

// TestFileBackendOSFaultStress is the same concurrency stress with
// OS-level faults in the schedule: syscall EIO on every slot, plus a
// stored bit-flip on the CTT-GH slots (the method whose unit restart
// re-stages corrupted scratch — CDT-GH stages once up front and would
// fail typed instead). Wall-clock-dependent directives (oswait= with
// an op deadline) are deliberately excluded: a loaded CI machine
// could trip a deadline on a clean op and break the cross-round
// determinism this test asserts.
func TestFileBackendOSFaultStress(t *testing.T) {
	faults := func(_ int, m Method) string {
		spec := "oserr=disk:1:2,oserr=R:2"
		if m == CTTGH {
			spec += ",flip=disk:0"
		}
		return spec
	}
	const n = 4
	first := stressRound(t, n, faults)
	if t.Failed() {
		t.FailNow()
	}
	second := stressRound(t, n, faults)
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("join %d: outcome changed across rounds: %+v vs %+v", i, first[i], second[i])
		}
	}
	for i := range first {
		if first[i].faults == 0 {
			t.Errorf("join %d: no faults injected — the OS schedule never bit", i)
		}
	}
}

// TestFileBackendMatchesSim runs the seven paper methods and SYM-H on
// the simulator and on the file backend over the same seeded
// relations: both must deliver the same pairs (Matches and OutputHash,
// which digests keys and payload bytes) and move the same tape and disk
// blocks. The file backend's reads fill recycled buffers, so a join
// that handed back a block it still aliased would change the hash.
func TestFileBackendMatchesSim(t *testing.T) {
	for _, m := range append(Methods(), SYMH) {
		t.Run(string(m), func(t *testing.T) {
			ref, err := chaosJoin(Config{}, m)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			got, err := chaosJoin(Config{Backend: "file", BackendDir: t.TempDir()}, m)
			if err != nil {
				t.Fatalf("file: %v", err)
			}
			r, f := ref.Stats, got.Stats
			if r.Matches == 0 {
				t.Fatal("sim produced no matches: the oracle would be vacuous")
			}
			if f.Matches != r.Matches || f.OutputHash != r.OutputHash {
				t.Errorf("file: %d matches, hash %#x; sim: %d matches, hash %#x",
					f.Matches, f.OutputHash, r.Matches, r.OutputHash)
			}
			if f.TapeReadMB != r.TapeReadMB || f.TapeWrittenMB != r.TapeWrittenMB ||
				f.DiskReadMB != r.DiskReadMB || f.DiskWrittenMB != r.DiskWrittenMB {
				t.Errorf("file moved tape %v/%v MB, disk %v/%v MB (read/written); sim tape %v/%v, disk %v/%v",
					f.TapeReadMB, f.TapeWrittenMB, f.DiskReadMB, f.DiskWrittenMB,
					r.TapeReadMB, r.TapeWrittenMB, r.DiskReadMB, r.DiskWrittenMB)
			}
		})
	}
}
