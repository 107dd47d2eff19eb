package exp

import (
	"fmt"
	"time"

	tapejoin "repro"
)

// SkewRow is one (backend, method) point of the skew experiment: the
// method's virtual response on uniform keys, on Zipf(0.99) keys under
// the uniform hash planner (paying the multi-load fallback when a
// bucket outgrows memory), and on the same Zipf input with skew-aware
// partitioning.
type SkewRow struct {
	Backend string
	Method  tapejoin.Method
	// Uniform, Zipf and ZipfAware are virtual response times; the
	// same Zipf input feeds the last two, so their difference is the
	// planner's doing alone.
	Uniform   time.Duration
	Zipf      time.Duration
	ZipfAware time.Duration
	// HeavyHitters and SkewPartitions report the ZipfAware run's plan
	// repair (zero for the non-hash methods, which ignore the knob).
	HeavyHitters   int
	SkewPartitions int
	// Matches is the Zipf join's cardinality; the experiment verifies
	// the two Zipf runs also agree on OutputHash before reporting.
	Matches  int64
	Feasible bool
	Reason   string
}

// skewMethods is every runnable method: the paper's seven plus the
// sort-merge and streaming baselines.
func skewMethods() []tapejoin.Method {
	return append(tapejoin.Methods(), tapejoin.TTSM, tapejoin.SYMH)
}

// skewGeometry returns the experiment's sizes: memory is squeezed so
// the uniform planner's largest Zipf bucket (uniform share plus the
// heaviest key's ~12% of R) overflows one load and pays the
// multi-load fallback, yet one load still holds the heaviest single
// key — the regime where isolating it genuinely removes the penalty
// instead of relabeling an unsplittable partition. M >= sqrt(|R|)
// keeps the Grace Hash family feasible throughout.
func skewGeometry(scale float64, quick bool) (rMB, sMB int64, memMB, diskMB float64) {
	if quick {
		return 4, 16, 0.75, 24
	}
	return 16, max(scaleMB(64, scale), 16), 2.5, 96 // R must stay the smaller relation
}

// skewRun executes one join: Zipf(theta) keys when theta > 0, with or
// without skew-aware partitioning.
func skewRun(backend string, method tapejoin.Method, rMB, sMB int64,
	memMB, diskMB, theta float64, skewAware bool) (*tapejoin.Result, error) {
	sys, err := newSystem(tapejoin.Config{
		Backend:   backend,
		MemoryMB:  memMB,
		DiskMB:    diskMB,
		Profile:   tapejoin.DLT4000,
		SkewAware: skewAware,
	})
	if err != nil {
		return nil, err
	}
	// TT-SM sorts in place on tape (~1.5×(|R|+|S|) of workspace beyond
	// the resident relation); the hash methods just need the other
	// relation's worth of scratch, which this covers too.
	tR, err := sys.NewTape("tape-R", 3*(rMB+sMB))
	if err != nil {
		return nil, err
	}
	tS, err := sys.NewTape("tape-S", 3*(sMB+rMB))
	if err != nil {
		return nil, err
	}
	r, err := sys.CreateRelation(tR, tapejoin.RelationConfig{
		Name: "R", SizeMB: rMB, TuplesPerBlock: 4, KeySpace: 4096,
		ZipfTheta: theta, Seed: 11,
	})
	if err != nil {
		return nil, err
	}
	s, err := sys.CreateRelation(tS, tapejoin.RelationConfig{
		Name: "S", SizeMB: sMB, TuplesPerBlock: 4, KeySpace: 4096,
		ZipfTheta: theta, Seed: 22,
	})
	if err != nil {
		return nil, err
	}
	return sys.Join(method, r, s)
}

// Skew runs the skew experiment: all nine methods on both storage
// backends, uniform vs Zipf(0.99) keys, and — on the Zipf input — the
// uniform planner vs skew-aware partitioning. The two Zipf runs of
// each method must produce the identical output multiset (OutputHash);
// a mismatch fails the experiment. quick shrinks the workload for the
// CI smoke step.
func Skew(scale float64, quick bool) ([]SkewRow, error) {
	const theta = 0.99
	rMB, sMB, memMB, diskMB := skewGeometry(scale, quick)
	backends := []string{"sim", "file"}
	var rows []SkewRow
	for _, backend := range backends {
		for _, method := range skewMethods() {
			row := SkewRow{Backend: backend, Method: method}
			uni, err := skewRun(backend, method, rMB, sMB, memMB, diskMB, 0, false)
			if err != nil {
				row.Reason = err.Error()
				rows = append(rows, row)
				continue
			}
			zipf, err := skewRun(backend, method, rMB, sMB, memMB, diskMB, theta, false)
			if err != nil {
				row.Reason = err.Error()
				rows = append(rows, row)
				continue
			}
			aware, err := skewRun(backend, method, rMB, sMB, memMB, diskMB, theta, true)
			if err != nil {
				row.Reason = err.Error()
				rows = append(rows, row)
				continue
			}
			if zipf.Stats.OutputHash != aware.Stats.OutputHash ||
				zipf.Stats.Matches != aware.Stats.Matches {
				return nil, fmt.Errorf("skew: %s/%s: skew-aware output diverges from uniform planner (%d/%d matches)",
					backend, method, aware.Stats.Matches, zipf.Stats.Matches)
			}
			row.Feasible = true
			row.Uniform = uni.Stats.Response
			row.Zipf = zipf.Stats.Response
			row.ZipfAware = aware.Stats.Response
			row.HeavyHitters = aware.Stats.HeavyHitters
			row.SkewPartitions = aware.Stats.SkewPartitions
			row.Matches = zipf.Stats.Matches
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// simRows keeps the sim backend's rows: virtual time, unlike the
// file backend's wall-clock responses.
func simRows(rows []SkewRow) any {
	var sim []SkewRow
	for _, r := range rows {
		if r.Backend == "sim" {
			sim = append(sim, r)
		}
	}
	return sim
}

// SkewVerdict enforces the experiment's contract on the sim backend:
// every Grace Hash method must be feasible, detect the skew (a
// non-trivial plan), and at least one of them must beat the uniform
// planner on the Zipf input in virtual time.
func SkewVerdict(rows []SkewRow) error {
	gh := map[tapejoin.Method]bool{
		tapejoin.DTGH: true, tapejoin.CDTGH: true,
		tapejoin.CTTGH: true, tapejoin.TTGH: true,
	}
	wins := 0
	seen := 0
	for _, r := range rows {
		if r.Backend != "sim" || !gh[r.Method] {
			continue
		}
		seen++
		if !r.Feasible {
			return fmt.Errorf("skew: %s infeasible on sim: %s", r.Method, r.Reason)
		}
		if r.SkewPartitions == 0 {
			return fmt.Errorf("skew: %s: plan stayed trivial under Zipf 0.99", r.Method)
		}
		if r.ZipfAware < r.Zipf {
			wins++
		}
	}
	if seen == 0 {
		return fmt.Errorf("skew: no GH rows on the sim backend")
	}
	if wins == 0 {
		return fmt.Errorf("skew: skew-aware partitioning beat the uniform planner for no GH method")
	}
	return nil
}
