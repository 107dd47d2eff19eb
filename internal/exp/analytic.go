package exp

import (
	"encoding/json"
	"math"

	"repro/internal/cost"
	"repro/internal/join"
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
// |R|/M on the x axis. A method is infeasible where its footprint does
// not fit M and D; tape scratch is unbounded.
func AnalyticFigure(fig int) []AnalyticPoint {
	const m = 256 // 16 MB of 64 KB blocks; only ratios matter
	res := join.Resources{MemoryBlocks: m, DiskBlocks: 32 * m, Tape: tape.DLT4000()}
	xt := res.Tape.EffectiveRate()
	res.DiskRate = 2 * xt
	var out []AnalyticPoint
	for _, ratio := range figureRange(fig) {
		r := int64(math.Round(ratio * m))
		p := cost.Params{SBlocks: 10 * r, TapeRate: xt}
		pt := AnalyticPoint{ROverM: ratio, Relative: map[string]float64{}}
		for _, rk := range join.Rank(join.Methods(), r, 10*r, res, join.AnyTapes) {
			pt.Relative[rk.Method.Symbol()] = rk.Est.Relative(p)
		}
		out = append(out, pt)
	}
	return out
}
