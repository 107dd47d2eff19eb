package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/hashutil"
)

// fig13 builds the parameter point of Figures 1-3: |S| = 10|R|,
// D = 32M, X_D = 2 X_T, with |R| = ratio * M.
func fig13(ratio float64) Params {
	const m = 256
	r := int64(ratio * m)
	return Params{
		RBlocks: r, SBlocks: 10 * r,
		MBlocks: m, DBlocks: 32 * m,
		TapeRate: 1e6, DiskRate: 2e6,
	}
}

// sevenMethods are the paper's methods in its order.
var sevenMethods = []string{"DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH"}

func est(t *testing.T, method string, p Params) Estimate {
	t.Helper()
	e := EstimateMethod(method, p)
	if e.Err != nil {
		t.Fatalf("%s at %+v: %v", method, p, e.Err)
	}
	return e
}

func TestValidate(t *testing.T) {
	good := fig13(2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.RBlocks = 0
	if bad.Validate() == nil {
		t.Fatal("want error for |R|=0")
	}
	bad = good
	bad.SBlocks = bad.RBlocks - 1
	if bad.Validate() == nil {
		t.Fatal("want error for |S| < |R|")
	}
	bad = good
	bad.TapeRate = 0
	if bad.Validate() == nil {
		t.Fatal("want error for zero rate")
	}
}

func TestSReadBaseline(t *testing.T) {
	p := fig13(1)
	want := float64(p.SBlocks) * block.VirtualSize / p.TapeRate
	if got := p.SReadSeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("SReadSeconds = %v, want %v", got, want)
	}
}

func TestUnknownMethod(t *testing.T) {
	e := EstimateMethod("XX", fig13(1))
	if e.Err == nil || !math.IsInf(e.Seconds, 1) {
		t.Fatal("unknown method should be infeasible")
	}
}

func TestEstimateAllCoversSevenMethods(t *testing.T) {
	for _, m := range sevenMethods {
		e := EstimateMethod(m, fig13(2))
		if e.Err != nil {
			t.Fatalf("%s infeasible at an easy point: %v", e.Method, e.Err)
		}
		if e.Seconds <= 0 || e.StepISeconds <= 0 || e.StepISeconds > e.Seconds {
			t.Fatalf("%s: bad estimate %+v", e.Method, e)
		}
	}
}

// Figure 1 shape: for |R| comparable to M, NB methods' response climbs
// with |R|/M while hashing methods stay fairly constant; CDT-NB/MB is
// best near |R| = M but degrades fastest.
func TestFigure1Shapes(t *testing.T) {
	relAt := func(method string, ratio float64) float64 {
		p := fig13(ratio)
		return est(t, method, p).Relative(p)
	}

	// NB methods rise substantially from ratio 1 to 5.
	for _, m := range []string{"DT-NB", "CDT-NB/MB", "CDT-NB/DB"} {
		lo, hi := relAt(m, 1), relAt(m, 5)
		if hi < lo*1.8 {
			t.Errorf("%s: relative cost %0.2f -> %0.2f; want strong growth", m, lo, hi)
		}
	}
	// Hashing methods stay nearly flat over the same range.
	for _, m := range []string{"DT-GH", "CDT-GH", "CTT-GH"} {
		lo, hi := relAt(m, 1), relAt(m, 5)
		if hi > lo*1.4 {
			t.Errorf("%s: relative cost %0.2f -> %0.2f; want near-flat", m, lo, hi)
		}
	}
	// CDT-NB/MB beats DT-NB at ratio 1 but loses by ratio 5
	// ("increases much more rapidly ... because it has to perform
	// twice as many iterations").
	if relAt("CDT-NB/MB", 1) >= relAt("DT-NB", 1) {
		t.Error("CDT-NB/MB should win at |R| = M")
	}
	if relAt("CDT-NB/MB", 5) <= relAt("DT-NB", 5) {
		t.Error("DT-NB should win at |R| = 5M")
	}
}

// Figure 2 shape: as |R| approaches D = 32M, DT-GH and CDT-GH blow up
// (d -> 0) while CTT-GH stays largely unaffected; TT-GH's setup cost
// rules it out.
func TestFigure2Shapes(t *testing.T) {
	relAt := func(method string, ratio float64) float64 {
		p := fig13(ratio)
		return EstimateMethod(method, p).Relative(p)
	}
	for _, m := range []string{"DT-GH", "CDT-GH"} {
		mid, edge := relAt(m, 20), relAt(m, 31)
		if edge < 2*mid {
			t.Errorf("%s: %0.2f at 20M -> %0.2f at 31M; want blow-up near D", m, mid, edge)
		}
	}
	ctt20, ctt31 := relAt("CTT-GH", 20), relAt("CTT-GH", 31)
	if ctt31 > ctt20*1.5 {
		t.Errorf("CTT-GH: %0.2f -> %0.2f; want largely unaffected", ctt20, ctt31)
	}
	// TT-GH is far worse than CTT-GH in this range (high setup cost).
	if relAt("TT-GH", 20) < 2*relAt("CTT-GH", 20) {
		t.Error("TT-GH should be ruled out by its setup cost")
	}
}

// Figure 3 shape: far beyond M and D, CTT-GH scales gracefully
// (sub-linear relative growth). That only the tape-tape methods fit
// there is join's footprint (TestFeasibilityBoundaries).
func TestFigure3Shapes(t *testing.T) {
	p60, p150 := fig13(60), fig13(150)
	r60 := est(t, "CTT-GH", p60).Relative(p60)
	r150 := est(t, "CTT-GH", p150).Relative(p150)
	if r150 > r60*(150.0/60.0) {
		t.Errorf("CTT-GH relative cost grows super-linearly: %0.2f at 60 -> %0.2f at 150", r60, r150)
	}
}

// Table 3 check: at the paper's Experiment 1 parameters the model's
// relative cost lands in the mid-single digits and decreases when |S|
// grows with everything else fixed (Join III -> Join IV).
func TestTable3RelativeCost(t *testing.T) {
	mb := func(megabytes int64) int64 { return megabytes * 16 } // 64 KB blocks
	joinIII := Params{
		RBlocks: mb(2500), SBlocks: mb(5000),
		MBlocks: mb(16), DBlocks: mb(500),
		TapeRate: 1.676e6, DiskRate: 2 * 1.676e6,
	}
	joinIV := joinIII
	joinIV.SBlocks = mb(10000)

	e3 := est(t, "CTT-GH", joinIII)
	e4 := est(t, "CTT-GH", joinIV)
	rel3 := e3.Seconds / (joinIII.tT(float64(joinIII.SBlocks + joinIII.RBlocks)))
	rel4 := e4.Seconds / (joinIV.tT(float64(joinIV.SBlocks + joinIV.RBlocks)))
	if rel3 < 3 || rel3 > 10 {
		t.Errorf("Join III relative cost = %0.1f, want mid-single digits", rel3)
	}
	if rel4 >= rel3 {
		t.Errorf("relative cost should fall with |S|: %0.2f -> %0.2f", rel3, rel4)
	}
}

func TestOverheadAndRelative(t *testing.T) {
	p := fig13(1)
	e := est(t, "CDT-GH", p)
	if math.Abs((e.Overhead(p)+1)-e.Relative(p)) > 1e-9 {
		t.Fatal("Overhead and Relative disagree")
	}
}

func TestTTSMEstimate(t *testing.T) {
	p := fig13(4)
	e := EstimateMethod("TT-SM", p)
	if e.Err != nil {
		t.Fatal(e.Err)
	}
	// The baseline must be predicted slower than CTT-GH even under the
	// seek-free transfer-only model.
	ctt := EstimateMethod("CTT-GH", p)
	if e.Seconds <= ctt.Seconds {
		t.Fatalf("TT-SM %.0f s should exceed CTT-GH %.0f s", e.Seconds, ctt.Seconds)
	}
	// More memory means fewer merge passes, never more time.
	big := p
	big.MBlocks = p.MBlocks * 4
	if eb := EstimateMethod("TT-SM", big); eb.Seconds > e.Seconds {
		t.Fatalf("more memory slowed TT-SM: %.0f -> %.0f", e.Seconds, eb.Seconds)
	}
}

func TestQuickEstimatesWellFormed(t *testing.T) {
	// Feasible estimates are finite, positive, with StepI <= total and
	// monotone non-decreasing in |S|.
	f := func(rSeed, mSeed, dSeed uint8) bool {
		r := int64(rSeed)*8 + 64
		p := Params{
			RBlocks: r, SBlocks: 4 * r,
			MBlocks: int64(mSeed)%128 + 16, DBlocks: int64(dSeed)*16 + 2*r,
			TapeRate: 1e6, DiskRate: 2e6,
		}
		bigger := p
		bigger.SBlocks = 8 * r
		for _, m := range append(sevenMethods, "TT-SM") {
			e := EstimateMethod(m, p)
			if e.Err != nil {
				continue
			}
			if !(e.Seconds > 0) || math.IsInf(e.Seconds, 1) {
				return false
			}
			if e.StepISeconds <= 0 || e.StepISeconds > e.Seconds {
				return false
			}
			e2 := EstimateMethod(m, bigger)
			if e2.Err == nil && e2.Seconds < e.Seconds {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSkewInflatesGraceHash checks the skew extension of the model:
// with the heaviest key carrying MaxKeyFrac of the tuples (from
// hashutil.ZipfMaxKeyFrac for Zipf 0.99), every GH method's estimate
// inflates past its uniform value — the multi-load re-scans of the
// overweight bucket's S share — and SkewAware removes the penalty.
func TestSkewInflatesGraceHash(t *testing.T) {
	p := Params{
		RBlocks: 1024, SBlocks: 10240,
		MBlocks: 48, DBlocks: 2048,
		TapeRate: 1e6, DiskRate: 2e6,
	}
	frac := hashutil.ZipfMaxKeyFrac(0.99, 4096)
	if frac <= 0 || frac >= 1 {
		t.Fatalf("ZipfMaxKeyFrac(0.99, 4096) = %v", frac)
	}
	skewed, aware := p, p
	skewed.MaxKeyFrac = frac
	aware.MaxKeyFrac = frac
	aware.SkewAware = true
	for _, m := range []string{"DT-GH", "CDT-GH", "CTT-GH", "TT-GH"} {
		uni := est(t, m, p)
		sk := est(t, m, skewed)
		aw := est(t, m, aware)
		if sk.Seconds <= uni.Seconds {
			t.Fatalf("%s: skew did not inflate the estimate: %.1f vs %.1f",
				m, sk.Seconds, uni.Seconds)
		}
		if aw.Seconds != uni.Seconds {
			t.Fatalf("%s: SkewAware should cancel the penalty: %.1f vs %.1f",
				m, aw.Seconds, uni.Seconds)
		}
	}
	// The NB methods scan all of R per iteration regardless of key
	// distribution, so skew leaves them unchanged — and can therefore
	// flip the advisor's choice.
	for _, m := range []string{"DT-NB", "CDT-NB/MB", "CDT-NB/DB", "TT-SM"} {
		uni := est(t, m, p)
		sk := est(t, m, skewed)
		if sk.Seconds != uni.Seconds {
			t.Fatalf("%s: skew changed a non-GH estimate", m)
		}
	}
}

// TestValidateMaxKeyFrac rejects out-of-range key fractions.
func TestValidateMaxKeyFrac(t *testing.T) {
	p := fig13(4)
	for _, bad := range []float64{-0.1, 1.5} {
		p.MaxKeyFrac = bad
		if err := p.Validate(); err == nil {
			t.Fatalf("MaxKeyFrac %v passed Validate", bad)
		}
	}
	p.MaxKeyFrac = 0.5
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedSplit pins the shared pass's memory rule: mr is half the
// M/k share, capped at the request size and at least one block; the two
// S buffers split the rest.
func TestSharedSplit(t *testing.T) {
	for _, tc := range []struct{ m, k, chunk, mr, ms int64 }{
		{256, 4, 32, 32, 64}, // the share allows a full request
		{40, 4, 8, 5, 10},    // half the share is below the request size
		{4, 2, 100, 1, 1},    // the M/k edge: one block each
		{4, 3, 100, 1, 0},    // a third rider leaves no S buffer
		{0, 1, 8, 1, 0},      // no memory at all
	} {
		mr, ms := SharedSplit(tc.m, tc.k, tc.chunk)
		if mr != tc.mr || ms != tc.ms {
			t.Errorf("SharedSplit(%d, %d, %d) = %d, %d, want %d, %d",
				tc.m, tc.k, tc.chunk, mr, ms, tc.mr, tc.ms)
		}
	}
}

// TestEstimateShared checks the shared pass's formula term by term on a
// hand-computed point, and the regimes it must order correctly: a pass
// over small R and ample M is tape-bound and beats the riders' solo
// reads of S, while with R large against M/k the R re-scans and their
// positioning make it lose to solo Grace Hash.
func TestEstimateShared(t *testing.T) {
	p := Params{SBlocks: 1000, MBlocks: 40, TapeRate: 1e6, DiskRate: 2e6}
	rq := Requests{Disks: 2, Positioning: 0.01}
	e := EstimateShared(p, []int64{16, 16, 16, 16}, 8, rq)
	if e.Err != nil {
		t.Fatal(e.Err)
	}
	// mr = 5, ms = 10: each R is three 5-block requests (rounded up to
	// 6-block stripes) plus one 1-block request (a 2-block stripe).
	b := float64(block.VirtualSize)
	scan := 4 * (3*(0.01+6*b/2e6) + (0.01 + 2*b/2e6))
	stepI := 4 * (16*b/1e6 + 16*b/2e6)
	want := stepI + 10*b/1e6 + 100*math.Max(10*b/1e6, scan)
	if math.Abs(e.Seconds-want) > 1e-9 {
		t.Errorf("Seconds = %v, want %v", e.Seconds, want)
	}
	if e.StepISeconds != stepI || e.DiskSpaceBlocks != 64 || e.DiskTrafficBlocks != 64+100*64 {
		t.Errorf("estimate %+v: want StepI %v, space 64, traffic %d", e, stepI, 64+100*64)
	}
	// Positioning is the term the transfer-only model lacks.
	if free := EstimateShared(p, []int64{16, 16, 16, 16}, 8, Requests{Disks: 2}); free.Seconds >= e.Seconds {
		t.Errorf("positioning adds nothing: %v vs %v", free.Seconds, e.Seconds)
	}

	solo := func(r, m int64) float64 {
		return est(t, "CDT-GH", Params{RBlocks: r, SBlocks: 1000, MBlocks: m, DBlocks: 400,
			TapeRate: 1e6, DiskRate: 2e6}).Seconds
	}
	if sh := EstimateShared(p, []int64{64, 64, 64, 64}, 8, rq).Seconds; sh <= 4*solo(64, 40) {
		t.Errorf("R=64, M=40: shared %v should lose to 4 solo CDT-GH %v", sh, 4*solo(64, 40))
	}
	p.MBlocks = 256
	if sh := EstimateShared(p, []int64{16, 16, 16, 16}, 32, rq).Seconds; sh >= 4*solo(16, 256) {
		t.Errorf("R=16, M=256: shared %v should beat 4 solo CDT-GH %v", sh, 4*solo(16, 256))
	}

	if e := EstimateShared(Params{SBlocks: 100, MBlocks: 4, TapeRate: 1e6, DiskRate: 2e6},
		[]int64{4, 4, 4}, 100, rq); e.Err == nil || !math.IsInf(e.Seconds, 1) {
		t.Errorf("three riders on M=4 should be infeasible, got %+v", e)
	}
	if e := EstimateShared(p, nil, 8, rq); e.Err == nil {
		t.Error("a pass with no riders should be infeasible")
	}
}
