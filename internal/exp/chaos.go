package exp

import (
	"errors"
	"fmt"
	"strings"
	"time"

	tapejoin "repro"
	"repro/internal/fault"
)

// ChaosRow is one scenario of the wall-clock fault-tolerance
// experiment: a join or batch run on the file backend under an
// injected fault schedule, classified against the robustness
// contract — every scenario must either complete with the exact
// payload-hash output of a clean reference run, or fail fast with a
// typed error. It must never hang and never deliver wrong tuples.
type ChaosRow struct {
	Scenario string
	Mode     string // method symbol, or "batch <policy>"
	Faults   string
	Expect   string // "complete" or "fail-fast"
	Outcome  string
	Detail   string
	Elapsed  time.Duration // wall clock, measured
	Pass     bool
}

// chaosDeadline bounds each scenario's wall-clock time. A scenario
// that overruns is reported as HANG — the one outcome the fault
// taxonomy must make impossible.
const chaosDeadline = 90 * time.Second

// chaosScenario is one entry of the fault matrix. run returns a
// human-readable detail string on success; a scenario expecting
// fail-fast instead returns the join's error for typed-ness checks.
type chaosScenario struct {
	name   string
	mode   string
	faults string
	expect string
	quick  bool // included in the -quick CI smoke matrix
	// wantErrs are the sentinels a fail-fast scenario's error chain
	// must carry.
	wantErrs []error
	run      func(scale float64) (string, error)
}

// chaosJoin runs one method on the file backend under the given
// config mutations and verifies cardinality and payload hash against
// a clean sim-backend reference of the same seed — the cross-backend
// equivalence oracle.
func chaosJoin(scale float64, method tapejoin.Method, faults string,
	mutate func(*tapejoin.Config)) (string, error) {
	rMB := scaleMB(10, scale)
	sMB := scaleMB(40, scale)
	base := tapejoin.Config{
		MemoryMB: scaleMBf(8, scale),
		DiskMB:   scaleMBf(64, scale),
	}
	runOne := func(cfg tapejoin.Config) (*tapejoin.Result, error) {
		sys, r, s, err := chaosBuild(cfg, rMB, sMB)
		if err != nil {
			return nil, err
		}
		return sys.Join(method, r, s)
	}
	ref, err := runOne(base)
	if err != nil {
		return "", fmt.Errorf("sim reference: %w", err)
	}
	if ref.Stats.Matches == 0 {
		return "", errors.New("sim reference produced no matches: the payload oracle would be vacuous")
	}
	cfg := base
	cfg.Backend = "file"
	cfg.Faults = faults
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := runOne(cfg)
	if err != nil {
		return "", err
	}
	st := res.Stats
	if st.Matches != ref.Stats.Matches {
		return "", fmt.Errorf("wrong cardinality: %d matches, reference %d",
			st.Matches, ref.Stats.Matches)
	}
	if st.OutputHash != ref.Stats.OutputHash {
		return "", fmt.Errorf("payload hash mismatch: %#x, reference %#x",
			st.OutputHash, ref.Stats.OutputHash)
	}
	return fmt.Sprintf("hash=%#x retries=%d restarts=%d",
		st.OutputHash, st.Retries, st.UnitRestarts), nil
}

// chaosBuild is buildJoin with a key space dense enough that the
// chaos-sized relations join to a non-trivial output — the payload
// oracle needs real pairs to digest.
func chaosBuild(cfg tapejoin.Config, rMB, sMB int64) (*tapejoin.System, *tapejoin.Relation, *tapejoin.Relation, error) {
	sys, err := newSystem(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	tR, err := sys.NewTape("tape-R", rMB+sMB+2)
	if err != nil {
		return nil, nil, nil, err
	}
	tS, err := sys.NewTape("tape-S", sMB+rMB+2)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := sys.CreateRelation(tR, tapejoin.RelationConfig{
		Name: "R", SizeMB: rMB, KeySpace: 1 << 12, Seed: 31,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := sys.CreateRelation(tS, tapejoin.RelationConfig{
		Name: "S", SizeMB: sMB, KeySpace: 1 << 12, Seed: 32,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, r, s, nil
}

// chaosBatch runs a small multi-query batch on the file backend with
// a device fault persistent enough to kill one query's device
// mid-batch, and verifies the containment contract: the batch always
// completes, failed queries carry typed reasons, and every surviving
// query delivers its exact cardinality.
func chaosBatch(scale float64, faults string) (string, error) {
	sys, err := newSystem(tapejoin.Config{
		Backend:  "file",
		MemoryMB: scaleMBf(16, scale),
		DiskMB:   scaleMBf(96, scale),
		Faults:   faults,
	})
	if err != nil {
		return "", err
	}
	// Each query expects about |R|·|S| matches (MB; 64 tuples per MB
	// over 4096 keys). Below 4 MB of S a scaled-down query can expect
	// none, and the oracle would be vacuous.
	sMB := max(scaleMB(16, scale), 4)
	rMB := scaleMB(4, scale)
	tS, err := sys.NewTape("S1", 2*sMB+2)
	if err != nil {
		return "", err
	}
	s, err := sys.CreateRelation(tS, tapejoin.RelationConfig{
		Name: "S1", SizeMB: sMB, KeySpace: 1 << 12, Seed: 101,
	})
	if err != nil {
		return "", err
	}
	tR, err := sys.NewTape("RA0", 4*rMB+2)
	if err != nil {
		return "", err
	}
	var queries []tapejoin.BatchQuery
	want := make(map[int]int64)
	for i := 0; i < 4; i++ {
		r, err := sys.CreateRelation(tR, tapejoin.RelationConfig{
			Name: fmt.Sprintf("R%d", i+1), SizeMB: rMB,
			KeySpace: 1 << 12, Seed: int64(11 + i),
		})
		if err != nil {
			return "", err
		}
		queries = append(queries, tapejoin.BatchQuery{
			Method: tapejoin.CDTNBMB, R: r, S: s,
		})
		want[i] = tapejoin.ExpectedMatches(r, s)
		if want[i] == 0 {
			return "", fmt.Errorf("query %d expects no matches: the oracle would be vacuous", i)
		}
	}
	rep, err := sys.RunBatch(queries, tapejoin.BatchOptions{Policy: tapejoin.BatchFIFO})
	if err != nil {
		return "", fmt.Errorf("batch aborted (containment broken): %w", err)
	}
	if len(rep.Queries) != len(queries) {
		return "", fmt.Errorf("results for %d of %d queries", len(rep.Queries), len(queries))
	}
	failed := 0
	for i, qr := range rep.Queries {
		if qr.Failed {
			failed++
			if qr.Reason == "" {
				return "", fmt.Errorf("query %s failed without a typed reason", qr.ID)
			}
			continue
		}
		if qr.Matches != want[i] {
			return "", fmt.Errorf("query %s: %d matches, want %d", qr.ID, qr.Matches, want[i])
		}
	}
	if failed == 0 && rep.Requeues == 0 {
		return "", errors.New("fault schedule never bit: no failure, no requeue")
	}
	return fmt.Sprintf("failed=%d requeues=%d demotions=%d (typed, batch completed)",
		failed, rep.Requeues, rep.Demotions), nil
}

// chaosScenarios is the fault matrix: one scenario per wall-clock
// fault class of DESIGN.md §12, each pinned to the recovery (or
// typed fail-fast) path it must take.
var chaosScenarios = []chaosScenario{
	{
		name: "clean baseline", mode: "DT-GH", faults: "",
		expect: "complete", quick: true,
		run: func(scale float64) (string, error) {
			return chaosJoin(scale, tapejoin.DTGH, "", nil)
		},
	},
	{
		// Syscall-level EIO on both store and spool: the device
		// worker's retries absorb them below the join.
		name: "transient syscall EIO", mode: "DT-GH",
		faults: "oserr=disk:2,oserr=R:1",
		expect: "complete", quick: true,
		run: func(scale float64) (string, error) {
			return chaosJoin(scale, tapejoin.DTGH, "oserr=disk:2,oserr=R:1", nil)
		},
	},
	{
		// One stuck syscall outlives the op deadline; the watchdog
		// fails the op with ErrTimeout and the device-layer retry
		// reissues it clean.
		name: "stuck worker healed by deadline", mode: "DT-GH",
		faults: "oswait=disk:60ms:1",
		expect: "complete", quick: true,
		run: func(scale float64) (string, error) {
			return chaosJoin(scale, tapejoin.DTGH, "oswait=disk:60ms:1",
				func(cfg *tapejoin.Config) { cfg.FileOpTimeout = 5 * time.Millisecond })
		},
	},
	{
		// Every disk op stalls past the deadline with device-layer
		// retries disabled: the first overrun must surface typed
		// ErrTimeout and abort immediately — never hang.
		name: "stuck worker fails fast", mode: "DT-GH",
		faults: "oswait=disk:60ms:200",
		expect: "fail-fast", quick: true,
		wantErrs: []error{fault.ErrTimeout},
		run: func(scale float64) (string, error) {
			return chaosJoin(scale, tapejoin.DTGH, "oswait=disk:60ms:200",
				func(cfg *tapejoin.Config) {
					cfg.FileOpTimeout = 5 * time.Millisecond
					cfg.FileRetryMax = -1
					cfg.DisableRecovery = true
				})
		},
	},
	{
		// A stored scratch block is bit-flipped on disk: every re-read
		// fails its checksum with typed ErrCorrupt, the read budget
		// drains, and the unit restart re-stages the scratch from tape.
		name: "corrupt block re-staged", mode: "CTT-GH",
		faults: "flip=disk:0",
		expect: "complete", quick: true,
		run: func(scale float64) (string, error) {
			return chaosJoin(scale, tapejoin.CTTGH, "flip=disk:0", nil)
		},
	},
	{
		// The same stored flip through a method whose staging is not
		// inside a restartable unit: typed fail-fast, wrong tuples
		// never delivered.
		name: "corrupt block fails fast", mode: "DT-NB",
		faults: "flip=disk:0",
		expect: "fail-fast", quick: true,
		wantErrs: []error{fault.ErrFaultExhausted, fault.ErrCorrupt},
		run: func(scale float64) (string, error) {
			return chaosJoin(scale, tapejoin.DTNB, "flip=disk:0", nil)
		},
	},
	{
		// A torn (short) final write leaves a truncated record whose
		// CRC cannot verify; recovery is the same re-stage path.
		name: "torn final write re-staged", mode: "CTT-GH",
		faults: "torn=disk:0",
		expect: "complete", quick: false,
		run: func(scale float64) (string, error) {
			return chaosJoin(scale, tapejoin.CTTGH, "torn=disk:0", nil)
		},
	},
	{
		// A drive fault persistent enough to outlive one query's whole
		// retry pyramid and its requeue: the workload engine must
		// contain the failure — typed per-query reasons, exact results
		// for the survivors, batch never aborts.
		name: "dead device mid-batch", mode: "batch fifo",
		faults: "transient=R:3:40",
		expect: "complete", quick: true,
		run: func(scale float64) (string, error) {
			return chaosBatch(scale, "transient=R:3:40")
		},
	},
}

// Chaos runs the wall-clock fault-tolerance matrix on the file
// backend. Each scenario runs under a hard wall-clock deadline and is
// classified: a scenario expecting completion must reproduce the
// clean sim-backend reference's cardinality and payload hash; a
// scenario expecting fail-fast must surface every listed error
// sentinel in its chain. quick restricts the matrix to the CI smoke
// subset.
func Chaos(scale float64, quick bool) []ChaosRow {
	rows := make([]ChaosRow, 0, len(chaosScenarios))
	for _, sc := range chaosScenarios {
		if quick && !sc.quick {
			continue
		}
		rows = append(rows, runChaosScenario(sc, scale))
	}
	return rows
}

// runChaosScenario executes one scenario under the wall-clock
// deadline and classifies the outcome. A timed-out scenario leaks its
// goroutine — by then the run has already failed the no-hang
// contract, and the process is about to exit nonzero anyway.
func runChaosScenario(sc chaosScenario, scale float64) ChaosRow {
	row := ChaosRow{
		Scenario: sc.name, Mode: sc.mode, Faults: sc.faults, Expect: sc.expect,
	}
	type result struct {
		detail string
		err    error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		detail, err := sc.run(scale)
		done <- result{detail, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(chaosDeadline):
		row.Elapsed = time.Since(start)
		row.Outcome = "HANG"
		row.Detail = fmt.Sprintf("no result within %s", chaosDeadline)
		return row
	}
	row.Elapsed = time.Since(start)
	switch {
	case sc.expect == "complete" && res.err == nil:
		row.Outcome, row.Pass = "ok", true
		row.Detail = res.detail
	case sc.expect == "complete":
		row.Outcome = "FAILED"
		row.Detail = res.err.Error()
	case res.err == nil: // expected fail-fast, got success
		row.Outcome = "UNEXPECTED SUCCESS"
		row.Detail = res.detail
	default:
		var missing []string
		for _, want := range sc.wantErrs {
			if !errors.Is(res.err, want) {
				missing = append(missing, want.Error())
			}
		}
		if len(missing) > 0 {
			row.Outcome = "UNTYPED ERROR"
			row.Detail = fmt.Sprintf("%v (missing: %s)", res.err, strings.Join(missing, "; "))
		} else {
			row.Outcome, row.Pass = "fail-fast", true
			row.Detail = res.err.Error()
		}
	}
	return row
}

// ChaosVerdict returns a non-nil error when any scenario failed its
// contract, so callers can exit nonzero after printing the table.
func ChaosVerdict(rows []ChaosRow) error {
	bad := 0
	for _, r := range rows {
		if !r.Pass {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("chaos: %d of %d scenarios failed", bad, len(rows))
	}
	return nil
}

// FormatChaos renders the chaos matrix as a table.
func FormatChaos(rows []ChaosRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		faults := r.Faults
		if faults == "" {
			faults = "-"
		}
		out = append(out, []string{
			r.Scenario,
			r.Mode,
			faults,
			r.Expect,
			r.Outcome,
			fmt.Sprintf("%.2fs", r.Elapsed.Seconds()),
			r.Detail,
		})
	}
	return FormatTable(
		[]string{"Scenario", "Mode", "Faults", "Expect", "Outcome", "Wall", "Detail"},
		out)
}
