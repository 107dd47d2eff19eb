package exp

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	tapejoin "repro"
)

// RecoveryRow is one fault-injected join of the recovery experiment:
// the same join run clean and then under an injected fault schedule,
// with the recovery counters and the time the faults cost.
type RecoveryRow struct {
	Scenario   string
	Method     string
	Faults     string // the injected schedule spec
	Clean      time.Duration
	Faulted    time.Duration
	Injected   int64
	Retries    int64
	Restarts   int64
	Recovery   time.Duration
	DisksLost  int
	DegradedTo string // non-empty when a tape-drive loss forced a re-plan
	Verified   bool   // faulted run produced the expected cardinality
}

// recoveryScenarios are the fault-injection points: one per fault
// class, each paired with the method whose recovery path it exercises.
var recoveryScenarios = []struct {
	name   string
	method tapejoin.Method
	rMB    int64
	sMB    int64
	memMB  float64
	dMB    float64
	faults string
}{
	{"transient tape errors", tapejoin.CTTGH, 100, 400, 16, 200,
		"transient=R:50:2,transient=S:200:1"},
	{"corrupt delivered blocks", tapejoin.CDTGH, 50, 200, 16, 100,
		"corrupt=S:100:2,corrupt=disk:20:1"},
	{"disk drive death", tapejoin.CTTGH, 100, 400, 16, 200,
		"diskfail=1@40s"},
	{"tape drive loss", tapejoin.CDTGH, 50, 200, 16, 100,
		"drivefail=S@60s"},
	{"seeded random burst", tapejoin.DTNB, 20, 100, 8, 40,
		"random=4:6"},
}

// FaultRecovery runs each recovery scenario twice — clean, then under
// its fault schedule — and reports the recovery counters and the
// response-time cost of the faults. Every faulted run must still
// produce the correct join cardinality; Verified records the check.
// The schedule's @TIME triggers scale with the workload, so a device
// loss still lands inside the shrunken join.
func FaultRecovery(scale float64) ([]RecoveryRow, error) {
	rows := make([]RecoveryRow, 0, len(recoveryScenarios))
	for _, sc := range recoveryScenarios {
		faults := scaleTriggers(sc.faults, scale)
		rMB := scaleMB(sc.rMB, scale)
		sMB := scaleMB(sc.sMB, scale)
		cfg := tapejoin.Config{
			MemoryMB: scaleMBf(sc.memMB, math.Sqrt(scale)),
			DiskMB:   scaleMBf(sc.dMB, scale),
		}
		run := func(faults string) (*tapejoin.Result, int64, error) {
			cfg := cfg
			cfg.Faults = faults
			sys, r, s, err := buildJoin(cfg, rMB, sMB, 77)
			if err != nil {
				return nil, 0, err
			}
			res, err := sys.Join(sc.method, r, s)
			if err != nil {
				return nil, 0, err
			}
			return res, tapejoin.ExpectedMatches(r, s), nil
		}
		clean, _, err := run("")
		if err != nil {
			return nil, fmt.Errorf("%s (clean): %w", sc.name, err)
		}
		faulted, want, err := run(faults)
		if err != nil {
			return nil, fmt.Errorf("%s (faulted): %w", sc.name, err)
		}
		st := faulted.Stats
		rows = append(rows, RecoveryRow{
			Scenario:   sc.name,
			Method:     string(sc.method),
			Faults:     faults,
			Clean:      clean.Stats.Response,
			Faulted:    st.Response,
			Injected:   st.Faults,
			Retries:    st.Retries,
			Restarts:   st.UnitRestarts,
			Recovery:   st.RecoveryTime,
			DisksLost:  st.DisksLost,
			DegradedTo: st.DegradedTo,
			Verified:   st.Matches == want,
		})
	}
	return rows, nil
}

// scaleTriggers scales every @TIME trigger of a fault spec by scale; at
// scale 1 the spec is returned as written.
func scaleTriggers(spec string, scale float64) string {
	if scale == 1 {
		return spec
	}
	parts := strings.Split(spec, ",")
	for i, p := range parts {
		head, at, ok := strings.Cut(p, "@")
		if d, err := time.ParseDuration(at); ok && err == nil {
			parts[i] = head + "@" + time.Duration(float64(d)*scale).Round(time.Millisecond).String()
		}
	}
	return strings.Join(parts, ",")
}

// RecoveryVerdict fails a scenario whose faulted run injected no fault
// (it tested nothing), lost tuples, or lost a tape drive without
// re-planning onto the one left.
func RecoveryVerdict(rows []RecoveryRow) error {
	var errs []error
	for _, r := range rows {
		switch {
		case r.Injected == 0:
			errs = append(errs, fmt.Errorf("recovery: %s: %s injected no fault", r.Scenario, r.Faults))
		case !r.Verified:
			errs = append(errs, fmt.Errorf("recovery: %s: wrong output cardinality", r.Scenario))
		case strings.Contains(r.Faults, "drivefail=") && r.DegradedTo == "":
			errs = append(errs, fmt.Errorf("recovery: %s: drive lost but the join never degraded", r.Scenario))
		}
	}
	return errors.Join(errs...)
}

// FormatRecovery renders the fault-recovery experiment as a table.
func FormatRecovery(rows []RecoveryRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		degraded := r.DegradedTo
		if degraded == "" {
			degraded = "-"
		}
		verdict := "FAILED"
		if r.Verified {
			verdict = "ok"
		}
		out = append(out, []string{
			r.Scenario,
			r.Method,
			secs(r.Clean),
			secs(r.Faulted),
			fmt.Sprintf("%d", r.Injected),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Restarts),
			secs(r.Recovery),
			fmt.Sprintf("%d", r.DisksLost),
			degraded,
			verdict,
		})
	}
	return FormatTable(
		[]string{"Scenario", "Join", "Clean", "Faulted", "Faults", "Retries", "Restarts", "Recovery", "Disks lost", "Degraded to", "Output"},
		out)
}
