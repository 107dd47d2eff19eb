package tapejoin

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// chaosDeadline bounds each chaos scenario's wall-clock time. A
// scenario that overruns fails as a hang, the one outcome the fault
// taxonomy must make impossible; every scenario takes well under a
// second.
const chaosDeadline = 30 * time.Second

// chaosScenarios is the wall-clock fault matrix: one scenario per
// OS-level fault class of DESIGN.md §12, each pinned to the recovery
// or typed fail-fast path it must take on the file backend. A join
// scenario with no wantErrs must complete with the clean sim
// reference's output; one with wantErrs must fail with every listed
// sentinel in its chain. The batch scenario (no method) must contain
// its device failure.
var chaosScenarios = []struct {
	name   string
	method Method // "" runs the batch
	faults string
	mutate func(*Config)
	// wantErrs are the sentinels a fail-fast scenario's error chain
	// must carry.
	wantErrs []error
}{
	{name: "clean baseline", method: DTGH},
	{
		// Syscall-level EIO on both store and spool: the device
		// worker's retries absorb them below the join.
		name: "transient syscall EIO", method: DTGH,
		faults: "oserr=disk:2,oserr=R:1",
	},
	{
		// One stuck syscall outlives the op deadline; the watchdog
		// fails the op with ErrTimeout and the device-layer retry
		// reissues it clean.
		name: "stuck worker healed by deadline", method: DTGH,
		faults: "oswait=disk:60ms:1",
		mutate: func(cfg *Config) { cfg.FileOpTimeout = 5 * time.Millisecond },
	},
	{
		// Every disk op stalls past the deadline with device-layer
		// retries disabled: the first overrun must surface typed
		// ErrTimeout and abort at once.
		name: "stuck worker fails fast", method: DTGH,
		faults: "oswait=disk:60ms:200",
		mutate: func(cfg *Config) {
			cfg.FileOpTimeout = 5 * time.Millisecond
			cfg.DisableRecovery = true
		},
		wantErrs: []error{fault.ErrTimeout},
	},
	{
		// A stored scratch block is bit-flipped on disk: every re-read
		// fails its checksum with typed ErrCorrupt, the read budget
		// drains, and the unit restart re-stages the scratch from tape.
		name: "corrupt block re-staged", method: CTTGH,
		faults: "flip=disk:0",
	},
	{
		// The same stored flip through a method whose staging is not
		// inside a restartable unit: typed fail-fast, wrong tuples
		// never delivered.
		name: "corrupt block fails fast", method: DTNB,
		faults:   "flip=disk:0",
		wantErrs: []error{fault.ErrFaultExhausted, fault.ErrCorrupt},
	},
	{
		// A torn (short) final write leaves a truncated record whose
		// CRC cannot verify; recovery is the same re-stage path.
		name: "torn final write re-staged", method: CTTGH,
		faults: "torn=disk:0",
	},
	{
		// A drive fault persistent enough to outlive one query's whole
		// retry pyramid and its requeue: the workload engine must
		// contain the failure with typed per-query reasons and exact
		// results for the survivors, and never abort the batch.
		name:   "dead device mid-batch",
		faults: "transient=R:3:40",
	},
}

// TestChaosMatrix runs every chaos scenario on the file backend, each
// under chaosDeadline.
func TestChaosMatrix(t *testing.T) {
	for _, sc := range chaosScenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			if sc.method == "" {
				var rep *BatchReport
				var want []int64
				var err error
				withinDeadline(t, func() { rep, want, err = chaosBatch(dir, sc.faults) })
				checkChaosBatch(t, rep, want, err)
				return
			}
			cfg := Config{Backend: "file", BackendDir: dir, Faults: sc.faults}
			if sc.mutate != nil {
				sc.mutate(&cfg)
			}
			var ref, got *Result
			var err error
			withinDeadline(t, func() {
				if ref, err = chaosJoin(Config{}, sc.method); err == nil {
					got, err = chaosJoin(cfg, sc.method)
				}
			})
			switch {
			case ref == nil:
				t.Fatalf("sim reference: %v", err)
			case ref.Stats.Matches == 0:
				t.Fatal("sim reference produced no matches: the payload oracle would be vacuous")
			case sc.wantErrs != nil:
				if err == nil {
					t.Fatalf("completed (%d matches), want a typed fail-fast", got.Stats.Matches)
				}
				for _, want := range sc.wantErrs {
					if !errors.Is(err, want) {
						t.Errorf("error %q does not carry %q", err, want)
					}
				}
			case err != nil:
				t.Fatal(err)
			default:
				st := got.Stats
				if st.Matches != ref.Stats.Matches || st.OutputHash != ref.Stats.OutputHash {
					t.Errorf("%d matches, hash %#x; sim reference %d, %#x",
						st.Matches, st.OutputHash, ref.Stats.Matches, ref.Stats.OutputHash)
				}
				if sc.faults != "" && st.Faults == 0 {
					t.Errorf("fault schedule %q never fired", sc.faults)
				}
				t.Logf("hash=%#x faults=%d retries=%d restarts=%d",
					st.OutputHash, st.Faults, st.Retries, st.UnitRestarts)
			}
		})
	}
}

// withinDeadline runs f on its own goroutine and fails t as a hang if
// f has not returned within chaosDeadline. f must not use t. A hung f
// leaks its goroutine; the test has failed by then.
func withinDeadline(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(chaosDeadline):
		t.Fatalf("hang: no result within %s", chaosDeadline)
	}
}

// chaosJoin runs method over a 10 MB R and a 40 MB S with 8 MB of
// memory and 64 MB of disk on a system configured by cfg. The key
// space is dense enough that the join has a real output for the
// payload oracle to digest.
func chaosJoin(cfg Config, method Method) (*Result, error) {
	cfg.MemoryMB, cfg.DiskMB = 8, 64
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	tR, err := sys.NewTape("tape-R", 52)
	if err != nil {
		return nil, err
	}
	tS, err := sys.NewTape("tape-S", 52)
	if err != nil {
		return nil, err
	}
	r, err := sys.CreateRelation(tR, RelationConfig{Name: "R", SizeMB: 10, KeySpace: 1 << 12, Seed: 31})
	if err != nil {
		return nil, err
	}
	s, err := sys.CreateRelation(tS, RelationConfig{Name: "S", SizeMB: 40, KeySpace: 1 << 12, Seed: 32})
	if err != nil {
		return nil, err
	}
	return sys.Join(method, r, s)
}

// chaosBatch runs four CDT-NB/MB queries, each a 4 MB R against one
// shared 16 MB S, FIFO on the file backend under faults. It returns
// the report and each query's expected cardinality.
func chaosBatch(dir, faults string) (*BatchReport, []int64, error) {
	sys, err := NewSystem(Config{
		Backend: "file", BackendDir: dir, MemoryMB: 16, DiskMB: 96, Faults: faults,
	})
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()
	tS, err := sys.NewTape("S1", 34)
	if err != nil {
		return nil, nil, err
	}
	s, err := sys.CreateRelation(tS, RelationConfig{Name: "S1", SizeMB: 16, KeySpace: 1 << 12, Seed: 101})
	if err != nil {
		return nil, nil, err
	}
	tR, err := sys.NewTape("RA0", 18)
	if err != nil {
		return nil, nil, err
	}
	var queries []BatchQuery
	var want []int64
	for i := range 4 {
		r, err := sys.CreateRelation(tR, RelationConfig{
			Name: fmt.Sprintf("R%d", i+1), SizeMB: 4, KeySpace: 1 << 12, Seed: int64(11 + i),
		})
		if err != nil {
			return nil, nil, err
		}
		queries = append(queries, BatchQuery{Method: CDTNBMB, R: r, S: s})
		want = append(want, ExpectedMatches(r, s))
	}
	rep, err := sys.RunBatch(queries, BatchOptions{Policy: BatchFIFO})
	return rep, want, err
}

// checkChaosBatch holds a faulted batch to the containment contract:
// the batch completes, the fault bit (a failure or a requeue), every
// failed query carries a typed device-failure reason, and every
// survivor delivers its exact cardinality.
func checkChaosBatch(t *testing.T, rep *BatchReport, want []int64, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("batch aborted, containment broken: %v", err)
	}
	if len(rep.Queries) != len(want) {
		t.Fatalf("results for %d of %d queries", len(rep.Queries), len(want))
	}
	failed := 0
	for i, qr := range rep.Queries {
		switch {
		case want[i] == 0:
			t.Errorf("query %s expects no matches: the oracle would be vacuous", qr.ID)
		case qr.Failed:
			failed++
			if !strings.HasPrefix(qr.Reason, ReasonDeviceFailed+": ") {
				t.Errorf("query %s failed without a typed device reason: %q", qr.ID, qr.Reason)
			}
		case qr.Matches != want[i]:
			t.Errorf("query %s: %d matches, want %d", qr.ID, qr.Matches, want[i])
		}
	}
	if failed == 0 && rep.Requeues == 0 {
		t.Error("fault schedule never bit: no failure, no requeue")
	}
	t.Logf("failed=%d requeues=%d demotions=%d", failed, rep.Requeues, rep.Demotions)
}
