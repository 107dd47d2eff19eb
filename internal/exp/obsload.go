package exp

import (
	"fmt"
	"math"
	"time"

	tapejoin "repro"
	"repro/internal/join"
	"repro/internal/obs"
)

// ObsloadRow is one check of the instrumentation-overhead experiment:
// a measured value against its stated budget. A budget of "report"
// marks a characterization row that never fails the experiment.
type ObsloadRow struct {
	Check  string
	Value  string
	Budget string
	Pass   bool
}

const (
	// obsloadRecorderBudget is the flight recorder's per-event budget.
	// One Record is a mutex acquire plus a few fixed-size stores; 2µs
	// leaves two orders of magnitude of headroom over the measured cost
	// so the assertion documents "cheap enough to leave always-on"
	// without flaking on loaded CI machines.
	obsloadRecorderBudget = 2 * time.Microsecond
	// obsloadRecorderEvents sizes the recorder microbenchmark.
	obsloadRecorderEvents = 1_000_000
	// obsloadRuns is how many file-backend runs feed the overhead and
	// variance measurements.
	obsloadRuns = 3
	// obsloadWallBudget bounds the relative wall-clock overhead of
	// running with spans, metrics and the recorder on versus all off.
	// The join is I/O bound, so instrumentation should vanish in the
	// noise; 30% (or the absolute slack below on very short runs)
	// absorbs scheduler jitter without hiding a real regression.
	obsloadWallBudget = 0.30
	// obsloadWallSlack is the absolute overhead always tolerated, so
	// sub-100ms runs cannot fail on a single descheduling.
	obsloadWallSlack = 50 * time.Millisecond
)

// Obsload measures what the observability machinery costs: it runs
// the same join with instrumentation off and on, asserting the virtual
// result is bit-identical (scraping must never perturb the run) and
// the wall-clock overhead on the file backend stays within budget;
// microbenchmarks the flight recorder against its per-event budget;
// and characterizes run-to-run variance of the wall metrics, the data
// any wall-clock threshold must be set against.
func Obsload(scale float64) ([]ObsloadRow, error) {
	rMB := scaleMB(4, scale)
	sMB := scaleMB(16, scale)
	base := tapejoin.Config{
		MemoryMB: scaleMBf(8, scale),
		DiskMB:   scaleMBf(64, scale),
	}
	runOnce := func(cfg tapejoin.Config, method tapejoin.Method) (*tapejoin.Result, time.Duration, error) {
		sys, r, s, err := chaosBuild(cfg, rMB, sMB)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		res, err := sys.Join(method, r, s)
		return res, time.Since(start), err
	}
	var rows []ObsloadRow

	// 1. The virtual result must not depend on instrumentation: same
	// sim-backend join with Observe off and on, compared exactly.
	off, _, err := runOnce(base, tapejoin.DTGH)
	if err != nil {
		return nil, fmt.Errorf("sim reference: %w", err)
	}
	onCfg := base
	onCfg.Observe = true
	on, _, err := runOnce(onCfg, tapejoin.DTGH)
	if err != nil {
		return nil, fmt.Errorf("sim observed run: %w", err)
	}
	rows = append(rows, ObsloadRow{
		Check:  "virtual response unperturbed",
		Value:  fmt.Sprintf("off=%v on=%v", off.Stats.Response, on.Stats.Response),
		Budget: "exact",
		Pass:   off.Stats.Response == on.Stats.Response,
	})
	rows = append(rows, ObsloadRow{
		Check:  "output hash unperturbed",
		Value:  fmt.Sprintf("off=%#x on=%#x", off.Stats.OutputHash, on.Stats.OutputHash),
		Budget: "exact",
		Pass:   off.Stats.OutputHash == on.Stats.OutputHash,
	})

	// 2. Flight recorder microbenchmark: the always-on path must stay
	// within its per-event budget.
	rec := obs.NewFlightRecorder(0)
	start := time.Now()
	for i := 0; i < obsloadRecorderEvents; i++ {
		rec.Record("bench", "disk", "flight-recorder microbenchmark event")
	}
	perEvent := time.Since(start) / obsloadRecorderEvents
	rows = append(rows, ObsloadRow{
		Check:  "flight recorder cost/event",
		Value:  perEvent.String(),
		Budget: "<= " + obsloadRecorderBudget.String(),
		Pass:   perEvent <= obsloadRecorderBudget,
	})

	// 3. File-backend wall overhead: instrumentation on vs off, best of
	// obsloadRuns each (min is the least noisy wall estimator), plus
	// run-to-run variance of the wall metrics from the observed runs:
	// paced device emulation and a disk-staging method, so that the
	// devices have transfers to overlap. M and D are floored at
	// CDT-GH's footprint, which binds only well below scale 1.
	fileOff := base
	fileOff.Backend = "file"
	fileOff.FilePace = 100
	fileOff.MemoryMB, fileOff.DiskMB = floorMB(join.CDTGH{}, rMB, sMB, scaleMBf(2, scale), scaleMBf(16, scale))
	fileOn := fileOff
	fileOn.Observe = true
	var offWall, onWall, wallSecs, overlaps []float64
	for i := 0; i < obsloadRuns; i++ {
		if _, w, err := runOnce(fileOff, tapejoin.CDTGH); err != nil {
			return nil, fmt.Errorf("file run (observe off): %w", err)
		} else {
			offWall = append(offWall, w.Seconds())
		}
		res, w, err := runOnce(fileOn, tapejoin.CDTGH)
		if err != nil {
			return nil, fmt.Errorf("file run (observe on): %w", err)
		}
		onWall = append(onWall, w.Seconds())
		wallSecs = append(wallSecs, res.Stats.WallElapsed.Seconds())
		overlaps = append(overlaps, res.Stats.WallOverlap)
	}
	offBest, onBest := minOf(offWall), minOf(onWall)
	overhead := onBest - offBest
	budget := math.Max(offBest*obsloadWallBudget, obsloadWallSlack.Seconds())
	rows = append(rows, ObsloadRow{
		Check: "file wall overhead (spans+metrics+recorder)",
		Value: fmt.Sprintf("off=%.3fs on=%.3fs overhead=%+.1f%%",
			offBest, onBest, 100*overhead/offBest),
		Budget: fmt.Sprintf("<= %.3fs", budget),
		Pass:   overhead <= budget,
	})
	for _, m := range []struct {
		name    string
		samples []float64
	}{
		{"wall-sec", wallSecs},
		{"wall-overlap", overlaps},
	} {
		mean, cv := meanCV(m.samples)
		rows = append(rows, ObsloadRow{
			Check:  m.name + " run-to-run variance",
			Value:  fmt.Sprintf("mean=%.4f cv=%.1f%% (n=%d)", mean, 100*cv, len(m.samples)),
			Budget: "report",
			Pass:   true,
		})
	}
	return rows, nil
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// meanCV returns the sample mean and the coefficient of variation
// (stddev/mean; 0 when the mean is 0).
func meanCV(xs []float64) (mean, cv float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(xs)))
	return mean, sd / mean
}

// ObsloadVerdict returns a non-nil error when any budgeted check
// failed, so callers can exit nonzero after printing the table.
func ObsloadVerdict(rows []ObsloadRow) error {
	bad := 0
	for _, r := range rows {
		if !r.Pass {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("obsload: %d of %d checks over budget", bad, len(rows))
	}
	return nil
}

// FormatObsload renders the overhead checks as a table.
func FormatObsload(rows []ObsloadRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		status := "ok"
		if !r.Pass {
			status = "OVER BUDGET"
		}
		out = append(out, []string{r.Check, r.Value, r.Budget, status})
	}
	return FormatTable([]string{"Check", "Value", "Budget", "Status"}, out)
}
