package exp

import (
	"encoding/json"
	"math"

	"repro/internal/cost"
	"repro/internal/tape"
)

// AnalyticPoint is one x position of Figures 1–3: the relative
// response time of every method at a given |R|/M ratio.
type AnalyticPoint struct {
	ROverM float64
	// Relative maps method symbol to response time relative to the
	// bare tape read time of S; +Inf when infeasible.
	Relative map[string]float64
}

// MarshalJSON encodes an infeasible method's +Inf, which JSON numbers
// cannot carry, as null.
func (p AnalyticPoint) MarshalJSON() ([]byte, error) {
	rel := make(map[string]*float64, len(p.Relative))
	for m, v := range p.Relative {
		if math.IsInf(v, 1) {
			rel[m] = nil
		} else {
			rel[m] = &v
		}
	}
	return json.Marshal(struct {
		ROverM   float64
		Relative map[string]*float64
	}{p.ROverM, rel})
}

// figureRange returns the |R|/M grid of each analytical chart.
func figureRange(fig int) []float64 {
	switch fig {
	case 1: // small |R|
		return []float64{1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
	case 2: // medium |R|, up to D = 32M
		return []float64{5, 8, 11, 14, 17, 20, 23, 26, 29, 31}
	default: // large |R|, far beyond M and D
		return []float64{10, 30, 50, 70, 90, 110, 130, 150}
	}
}

// AnalyticFigure computes Figure 1, 2 or 3 of the paper from the
// analytical cost model: |S| = 10|R|, D = 32M, X_D = 2 X_T, with
// |R|/M on the x axis.
func AnalyticFigure(fig int) []AnalyticPoint {
	const m = 256 // 16 MB of 64 KB blocks; only ratios matter
	xt := tape.DLT4000().EffectiveRate()
	var out []AnalyticPoint
	for _, ratio := range figureRange(fig) {
		p := cost.Params{
			RBlocks:  int64(math.Round(ratio * m)),
			MBlocks:  m,
			DBlocks:  32 * m,
			TapeRate: xt,
			DiskRate: 2 * xt,
		}
		p.SBlocks = 10 * p.RBlocks
		pt := AnalyticPoint{ROverM: ratio, Relative: map[string]float64{}}
		for _, e := range cost.EstimateAll(p) {
			pt.Relative[e.Method] = e.Relative(p)
		}
		out = append(out, pt)
	}
	return out
}
