package join

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/tape"
)

// modelRes is the resource point of a cost-model case: M and D in
// blocks and the model's X_T and X_D in bytes/second.
func modelRes(m, d int64, xt, xd float64) Resources {
	return Resources{
		MemoryBlocks: m, DiskBlocks: d,
		Tape:     device.DriveConfig{NativeRate: xt, CompressionFactor: 1},
		DiskRate: xd,
	}
}

// rankOf returns cand's entry in a ranking.
func rankOf(t *testing.T, ranked []Ranked, sym string) Ranked {
	t.Helper()
	for _, r := range ranked {
		if r.Method.Symbol() == sym {
			return r
		}
	}
	t.Fatalf("%s not ranked", sym)
	return Ranked{}
}

func TestFeasibilityBoundaries(t *testing.T) {
	const r, s = 288, 2880
	fits := func(sym string, m, d int64) error {
		meth, _ := BySymbol(sym)
		return Fits(meth, r, s, modelRes(m, d, 1e6, 2e6), AnyTapes)
	}
	for _, sym := range []string{"DT-GH", "CDT-GH", "CTT-GH", "TT-GH"} {
		if err := fits(sym, 10, 800); !errors.Is(err, ErrNeedMemory) { // M < sqrt(|R|)
			t.Errorf("%s at M=10: err = %v, want ErrNeedMemory", sym, err)
		}
	}
	for _, sym := range []string{"DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH"} {
		if err := fits(sym, 28, 100); !errors.Is(err, ErrNeedDiskForR) { // D < |R|
			t.Errorf("%s at D=100: err = %v, want ErrNeedDiskForR", sym, err)
		}
	}
	if err := fits("CTT-GH", 28, 100); err != nil {
		t.Errorf("CTT-GH should run with D < |R|: %v", err)
	}
	// Far beyond M and D (Figure 3's |R| = 60M > D = 32M) only the
	// tape-tape methods remain.
	for _, sym := range []string{"DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH"} {
		meth, _ := BySymbol(sym)
		if err := Fits(meth, 60*256, 600*256, modelRes(256, 32*256, 1e6, 2e6), AnyTapes); err == nil {
			t.Errorf("%s should not fit |R| = 60M", sym)
		}
	}
}

// TestRank: the ranking encodes the paper's Section 10 advice, puts
// methods that do not fit last with +Inf prices, and sorts the rest.
func TestRank(t *testing.T) {
	// Very large R beyond disk: CTT-GH is "the sole candidate".
	r, s := int64(60*256), int64(600*256)
	res := modelRes(256, 32*256, 1e6, 2e6)
	ranked := Rank(Methods(), r, s, res, Tapes{R: 2 * r})
	if got := ranked[0]; got.Method.Symbol() != "CTT-GH" || got.Est.Err != nil {
		t.Fatalf("best = %s (%v), want CTT-GH", got.Method.Symbol(), got.Est.Err)
	}
	if len(ranked) != 7 {
		t.Fatalf("ranked %d methods", len(ranked))
	}
	// Without tape scratch nothing fits.
	if best := Rank(Methods(), r, s, res, Tapes{})[0]; best.Est.Err == nil {
		t.Fatalf("best = %s, want none", best.Method.Symbol())
	}
	// Ample disk, little memory: CDT-GH wins (Section 10).
	scratch := Tapes{R: 10000, S: 10000}
	ranked = Rank(Methods(), 288, 16000, modelRes(29, 800, 1.676e6, 2*1.676e6), scratch)
	if best := ranked[0].Method.Symbol(); best != "CDT-GH" {
		t.Fatalf("best = %s (then %s), want CDT-GH", best, ranked[1].Method.Symbol())
	}
	// Large fraction of R in memory: CDT-NB/MB wins.
	ranked = Rank(Methods(), 288, 16000, modelRes(280, 800, 1.676e6, 2*1.676e6), scratch)
	if best := ranked[0].Method.Symbol(); best != "CDT-NB/MB" {
		t.Fatalf("best = %s, want CDT-NB/MB", best)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Est.Seconds < ranked[i-1].Est.Seconds {
			t.Fatal("ranking not sorted")
		}
	}
	// A method that does not fit is priced +Inf.
	bad := Rank([]Method{DTNB{}}, 10, 100, modelRes(4, 5, 1, 1), AnyTapes)[0]
	p := cost.Params{SBlocks: 100, TapeRate: 1}
	if bad.Est.Err == nil || !math.IsInf(bad.Est.Relative(p), 1) || !math.IsInf(bad.Est.Overhead(p), 1) {
		t.Fatalf("DT-NB at D < |R|: %+v, want an error and +Inf relative cost", bad.Est)
	}
	// SYM-H fits but the model cannot price it: it ranks last.
	if sym := rankOf(t, Rank([]Method{SymHash{}, DTNB{}}, 288, 2880, modelRes(64, 4096, 1e6, 2e6), AnyTapes), "SYM-H"); sym.Est.Err == nil {
		t.Fatalf("SYM-H priced at %v s", sym.Est.Seconds)
	}
}

// TestDConstrainedRegion walks the disk-budget axis across the
// feasibility boundaries of the disk-staging methods. The NB family
// needs D >= |R| to hold the copied R; CDT-NB/DB additionally holds its
// S staging area, at least Table 2's |S_i| (ms = M - max(1, M/10)), so
// there is a band |R| <= D < |R| + staging where CDT-NB/MB runs and
// CDT-NB/DB does not. This is the region the workload engine's
// admission control navigates when the staging cache eats into D.
func TestDConstrainedRegion(t *testing.T) {
	const r, s, m = 512, 5120, 256
	res := func(d int64) Resources { return modelRes(m, d, 1e6, 2e6) }
	need, err := CDTNBDB{}.footprint(r, s, res(4*r).WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	_, ms := nbSplit(m)
	if need.D < r+ms {
		t.Fatalf("CDT-NB/DB needs D=%d, below Table 2's |R|+|S_i|=%d", need.D, r+ms)
	}
	dbFloor := need.D

	cases := []struct {
		name     string
		d        int64
		feasible map[string]bool
	}{
		{"below-R", r - 1, map[string]bool{"DT-NB": false, "CDT-NB/MB": false, "CDT-NB/DB": false}},
		{"exactly-R", r, map[string]bool{"DT-NB": true, "CDT-NB/MB": true, "CDT-NB/DB": false}},
		{"R-plus-partial-chunk", dbFloor - 1, map[string]bool{"DT-NB": true, "CDT-NB/MB": true, "CDT-NB/DB": false}},
		{"R-plus-chunk", dbFloor, map[string]bool{"DT-NB": true, "CDT-NB/MB": true, "CDT-NB/DB": true}},
		{"ample", 4 * r, map[string]bool{"DT-NB": true, "CDT-NB/MB": true, "CDT-NB/DB": true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, rk := range Rank([]Method{DTNB{}, CDTNBMB{}, CDTNBDB{}}, r, s, res(c.d), AnyTapes) {
				sym, want := rk.Method.Symbol(), c.feasible[rk.Method.Symbol()]
				if got := rk.Est.Err == nil; got != want {
					t.Errorf("%s at D=%d: feasible=%v, want %v (err: %v)", sym, c.d, got, want, rk.Est.Err)
				}
				if !want {
					if !errors.Is(rk.Est.Err, ErrNeedDiskForR) {
						t.Errorf("%s at D=%d: error %v does not wrap ErrNeedDiskForR", sym, c.d, rk.Est.Err)
					}
					if !math.IsInf(rk.Est.Seconds, 1) {
						t.Errorf("%s at D=%d: does not fit but Seconds=%v", sym, c.d, rk.Est.Seconds)
					}
				}
			}
		})
	}
}

// TestDConstrainedEscapeHatches confirms the advisor still has
// somewhere to go when D drops below |R|. TT-SM uses no disk at all.
// CTT-GH uses disk only to assemble buckets and buffer S, so it runs
// far below |R| — but not at D = 16, where Step II must buffer a block
// for each of its 103 buckets. TT-GH's shared bucket count puts more
// than M buckets on R at that D.
func TestDConstrainedEscapeHatches(t *testing.T) {
	const r, s, m = 512, 5120, 256
	res := func(d int64) Resources { return modelRes(m, d, 1e6, 2e6) }
	ranked := Rank([]Method{CTTGH{}, TTGH{}, TTSM{}}, r, s, res(16), AnyTapes)
	if sm := rankOf(t, ranked, "TT-SM"); sm.Est.Err != nil {
		t.Errorf("TT-SM at tiny D: %v (must survive the D-starved region)", sm.Est.Err)
	} else if need, _ := (TTSM{}).footprint(r, s, res(16).WithDefaults()); need.D != 0 {
		t.Errorf("TT-SM needs D=%d, want 0", need.D)
	}
	if ctt := rankOf(t, ranked, "CTT-GH"); !errors.Is(ctt.Est.Err, ErrNeedDisk) {
		t.Errorf("CTT-GH at D=16: err = %v, want ErrNeedDisk", ctt.Est.Err)
	}
	if tt := rankOf(t, ranked, "TT-GH"); !errors.Is(tt.Est.Err, ErrNeedMemory) {
		t.Errorf("TT-GH at D=16: err = %v, want ErrNeedMemory", tt.Est.Err)
	}
	// CTT-GH at D = |R|/2 pays one extra full R scan in Step I: the
	// D-starved price must exceed an ample-disk one, or admission
	// control would never prefer staging.
	starved := Rank([]Method{CTTGH{}}, r, s, res(r/2), AnyTapes)[0].Est
	ample := Rank([]Method{CTTGH{}}, r, s, res(4096), AnyTapes)[0].Est
	if starved.Err != nil || ample.Err != nil {
		t.Fatalf("CTT-GH at D=%d: %v; at D=4096: %v", r/2, starved.Err, ample.Err)
	}
	if starved.Seconds <= ample.Seconds {
		t.Errorf("CTT-GH: starved D cost %v not above ample D cost %v", starved.Seconds, ample.Seconds)
	}
}

// TestCDTNBDBFootprintIsItsPeak: CDT-NB/DB's D is exactly the disk its
// runs hold — R plus the double-buffered S staging, whose joiner frees
// a chunk only after reading it back while the stager refills the
// released space. Each geometry runs at the smallest D its footprint
// fits, and peaks there.
func TestCDTNBDBFootprintIsItsPeak(t *testing.T) {
	for _, c := range []struct {
		r, s, m int64
		split   bool
	}{
		{24, 96, 32, false}, {64, 256, 32, false}, {100, 400, 64, false},
		{288, 2880, 288, false}, {64, 256, 16, false}, {100, 700, 33, false},
		{64, 256, 32, true}, {100, 400, 64, true},
	} {
		res := fastRes(c.m, 0)
		if c.split {
			res.Discipline = SplitHalves
		}
		need, err := CDTNBDB{}.footprint(c.r, c.s, res.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		res.DiskBlocks = need.D
		spec := specWithSizes(t, c.r, c.s, 4)
		if err := Check(CDTNBDB{}, spec, res); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		res.DiskBlocks--
		if err := Check(CDTNBDB{}, spec, res); !errors.Is(err, ErrNeedDiskForR) {
			t.Fatalf("%+v at D=%d: err = %v, want ErrNeedDiskForR", c, res.DiskBlocks, err)
		}
		res.DiskBlocks++
		out, err := Run(CDTNBDB{}, spec, res, nil)
		if err != nil {
			t.Fatalf("%+v at its footprint D=%d: %v", c, need.D, err)
		}
		if hw := out.Stats.DiskHighWater; hw != need.D {
			t.Errorf("%+v: peak %d blocks, footprint D=%d", c, hw, need.D)
		}
	}
}

// TestCDTGHRunsWhereItFits: a run the footprint accepts must not
// refuse after paying Step I. At these geometries R's buckets leave
// fewer than two blocks per bucket for the S double buffer; the
// pipelined Step II needs a chunk of one block, as DT-GH's and
// CTT-GH's do, and completes.
func TestCDTGHRunsWhereItFits(t *testing.T) {
	for _, c := range [][4]int64{{64, 256, 12, 82}, {100, 1000, 16, 118}} {
		spec := specWithSizes(t, c[0], c[1], 4)
		res := fastRes(c[2], c[3])
		if err := Check(CDTGH{}, spec, res); err != nil {
			t.Fatalf("|R|=%d M=%d D=%d: %v", c[0], c[2], c[3], err)
		}
		sink := &CountSink{}
		if _, err := Run(CDTGH{}, spec, res, sink); err != nil {
			t.Fatalf("|R|=%d M=%d D=%d: %v", c[0], c[2], c[3], err)
		}
		if want := relation.ExpectedMatches(spec.R, spec.S); sink.Matches != want {
			t.Fatalf("matches = %d, want %d", sink.Matches, want)
		}
	}
}

// TestCDTNBDBRefusedWhereItCannotRun: the paper's |R| + |S_i| row is
// not enough disk for CDT-NB/DB; the footprint refuses it instead of
// letting the run fail mid-way with a full disk.
func TestCDTNBDBRefusedWhereItCannotRun(t *testing.T) {
	spec := specWithSizes(t, 256, 1024, 2)
	res := Resources{MemoryBlocks: 128, DiskBlocks: 256 + 116, Tape: tape.Ideal()}
	if _, err := Run(CDTNBDB{}, spec, res, nil); !errors.Is(err, ErrNeedDiskForR) || errors.Is(err, fault.ErrDiskFull) {
		t.Fatalf("err = %v, want a refusal before the run", err)
	}
}
