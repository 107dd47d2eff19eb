package cost

import (
	"math"
	"testing"

	"repro/internal/block"
)

// dParams builds a parameter point where the disk budget D is the
// interesting variable; everything else sits comfortably inside
// Table 2's memory constraints (join's TestDConstrainedRegion walks
// the feasibility boundaries themselves).
func dParams(r, s, m, d int64) Params {
	return Params{
		RBlocks: r, SBlocks: s, MBlocks: m, DBlocks: d,
		TapeRate: 1e6, DiskRate: 2e6,
	}
}

// TestDConstrainedSeconds pins the feasible NB estimates in the
// D-constrained band to the Table 2 formulas, recomputed here
// independently:
//
//	DT-NB:     t_T(R) + t_D(R) + t_T(S) + ceil(S/ms) t_D(R)
//	CDT-NB/MB: t_T(R) + t_D(R) + t_T(ms/2) + ceil(S/(ms/2)) max(t_T(ms/2), t_D(R))
//	CDT-NB/DB: t_T(R) + t_D(R) + ceil(S/ms) max(t_T(ms), t_D(2 ms + R)) + t_T(ms)
//
// so a future change to the model's arithmetic cannot slip through as
// a "shape-preserving" refactor.
func TestDConstrainedSeconds(t *testing.T) {
	const (
		r = 512
		s = 5120
		m = 256
	)
	p := dParams(r, s, m, r) // minimum D for the memory-buffered methods
	tT := func(n float64) float64 { return n * block.VirtualSize / p.TapeRate }
	tD := func(n float64) float64 { return n * block.VirtualSize / p.DiskRate }
	ms := float64(m) - math.Max(1, float64(m)/10)

	check := func(method string, pp Params, want float64) {
		t.Helper()
		e := EstimateMethod(method, pp)
		if e.Err != nil {
			t.Fatalf("%s: %v", method, e.Err)
		}
		if math.Abs(e.Seconds-want) > 1e-9*want {
			t.Errorf("%s Seconds = %v, want %v", method, e.Seconds, want)
		}
		// The copied-R methods' disk footprint starts at |R| blocks —
		// the quantity the workload admission test charges against
		// D - CacheBlocks.
		if e.DiskSpaceBlocks < r {
			t.Errorf("%s DiskSpaceBlocks = %d, want >= %d", method, e.DiskSpaceBlocks, r)
		}
	}

	check("DT-NB", p,
		tT(r)+tD(r)+tT(s)+math.Ceil(s/ms)*tD(r))

	half := ms / 2
	check("CDT-NB/MB", p,
		tT(r)+tD(r)+tT(half)+math.Ceil(s/half)*math.Max(tT(half), tD(r)))

	pdb := dParams(r, s, m, int64(math.Ceil(r+ms)))
	check("CDT-NB/DB", pdb,
		tT(r)+tD(r)+math.Ceil(s/ms)*math.Max(tT(ms), tD(2*ms+r))+tT(ms))
}
