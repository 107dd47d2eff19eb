package join

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cost"
)

// Need is a method's footprint for one geometry: the paper's Table 2
// row with the executor's own rounding, derived from the plan row and
// the bucket planners the executor calls. It is the one place that
// knows what a method needs; Check, the ranking, admission, the
// analytic figures and Table 2 all read it. All fields are blocks.
type Need struct {
	// M is the memory floor of the method's plan; footprint refuses
	// less with an error wrapping ErrNeedMemory. It is a floor, not a
	// peak: CDT-GH and CTT-GH hash chunk i+1 while the joiner holds an
	// R bucket, so their MemHighWater can reach 2M (EXPERIMENTS.md
	// deviation 4). D is the peak disk scratch the run holds; TR and TS
	// are the scratch it appends to R's and S's cartridges.
	M, D, TR, TS int64

	// dWhy names D's formula in the shortfall error; forR marks a D
	// that stages all of R (ErrNeedDiskForR rather than ErrNeedDisk).
	dWhy string
	forR bool
}

// Tapes is the free scratch space, in blocks, on R's and S's
// cartridges.
type Tapes struct{ R, S int64 }

// AnyTapes leaves tape scratch unchecked, as the cost model's
// estimates do.
var AnyTapes = Tapes{R: math.MaxInt64, S: math.MaxInt64}

// memFloor refuses memory below floor blocks.
func memFloor(res Resources, floor int64) error {
	if res.MemoryBlocks < floor {
		return fmt.Errorf("%w: M=%d < %d", ErrNeedMemory, res.MemoryBlocks, floor)
	}
	return nil
}

// Check reports whether m can join spec on res: its footprint must fit
// M, D and the free space on both cartridges. The error wraps
// ErrNeedMemory, ErrNeedDisk, ErrNeedDiskForR or ErrNeedTapeScratch.
func Check(m Method, spec Spec, res Resources) error {
	return Fits(m, spec.R.Region.N, spec.S.Region.N, res,
		Tapes{R: spec.R.Media.Free(), S: spec.S.Media.Free()})
}

// Fits is Check for relations of r and s blocks whose cartridges have
// free scratch.
func Fits(m Method, r, s int64, res Resources, free Tapes) error {
	need, err := m.footprint(r, s, res.WithDefaults())
	switch {
	case err != nil:
		return err
	case res.DiskBlocks < need.D:
		sentinel := ErrNeedDisk
		if need.forR {
			sentinel = ErrNeedDiskForR
		}
		return fmt.Errorf("%w: D=%d < %s=%d", sentinel, res.DiskBlocks, need.dWhy, need.D)
	case free.R < need.TR:
		return fmt.Errorf("%w: R tape has %d free, needs %d", ErrNeedTapeScratch, free.R, need.TR)
	case free.S < need.TS:
		return fmt.Errorf("%w: S tape has %d free, needs %d", ErrNeedTapeScratch, free.S, need.TS)
	}
	return nil
}

// Ranked is one candidate in Rank's order with the cost model's
// estimate. When the method does not fit, or the model cannot price it
// (SYM-H), Est.Err says why and Est.Seconds is +Inf.
type Ranked struct {
	Method Method
	Est    cost.Estimate
}

// Rank orders the candidates for an r ⋈ s join on res: the methods
// whose footprint fits, by the cost model's response time (ties keep
// candidate order), then the rest in candidate order, each with its
// reason. The advisor, Choose and the drive-loss re-plan all rank
// through it.
func Rank(cands []Method, r, s int64, res Resources, free Tapes) []Ranked {
	res = res.WithDefaults()
	p := cost.Params{RBlocks: r, SBlocks: s, MBlocks: res.MemoryBlocks, DBlocks: res.DiskBlocks,
		TapeRate: res.Tape.EffectiveRate(), DiskRate: res.DiskRate, SkewAware: res.SkewAware}
	out := make([]Ranked, len(cands))
	for i, m := range cands {
		est := cost.Estimate{Method: m.Symbol(), Seconds: math.Inf(1)}
		if est.Err = Fits(m, r, s, res, free); est.Err == nil {
			est = cost.EstimateMethod(m.Symbol(), p)
		}
		out[i] = Ranked{Method: m, Est: est}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Est.Seconds < out[j].Est.Seconds })
	return out
}
