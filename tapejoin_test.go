package tapejoin

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/block"
)

// quickSystem returns a small ideal-model system.
func quickSystem(t *testing.T, memMB, diskMB float64) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		MemoryMB: memMB,
		DiskMB:   diskMB,
		Profile:  IdealTape,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// makeRelations creates a 2 MB R and an 8 MB S on separate cartridges
// with room for tape-tape scratch.
func makeRelations(t *testing.T, sys *System) (*Relation, *Relation) {
	t.Helper()
	tR, err := sys.NewTape("R-tape", 32)
	if err != nil {
		t.Fatal(err)
	}
	tS, err := sys.NewTape("S-tape", 32)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.CreateRelation(tR, RelationConfig{
		Name: "R", SizeMB: 2, KeySpace: 4000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.CreateRelation(tS, RelationConfig{
		Name: "S", SizeMB: 8, KeySpace: 4000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func TestSystemJoinAllMethods(t *testing.T) {
	var want int64
	for _, m := range Methods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			sys := quickSystem(t, 1, 8)
			r, s := makeRelations(t, sys)
			if want == 0 {
				want = ExpectedMatches(r, s)
				if want == 0 {
					t.Fatal("no expected matches")
				}
			}
			res, err := sys.Join(m, r, s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Matches != want {
				t.Fatalf("matches = %d, want %d", res.Stats.Matches, want)
			}
			if res.Stats.Response <= 0 {
				t.Fatal("no response time")
			}
		})
	}
}

func TestRelationAccessors(t *testing.T) {
	sys := quickSystem(t, 1, 8)
	r, _ := makeRelations(t, sys)
	if r.Name() != "R" || r.SizeMB() != 2 || r.Blocks() != 32 || r.Tuples() != 128 {
		t.Fatalf("accessors: %s %d %d %d", r.Name(), r.SizeMB(), r.Blocks(), r.Tuples())
	}
}

func TestTapeScratchAccounting(t *testing.T) {
	sys := quickSystem(t, 1, 8)
	tp, err := sys.NewTape("t", 10)
	if err != nil {
		t.Fatal(err)
	}
	if tp.FreeMB() != 10 {
		t.Fatalf("free = %d", tp.FreeMB())
	}
	if _, err := sys.CreateRelation(tp, RelationConfig{Name: "x", SizeMB: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if tp.FreeMB() != 6 {
		t.Fatalf("free after create = %d", tp.FreeMB())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MemoryMB: 0, DiskMB: 8},
		{MemoryMB: 1, DiskMB: 0},
		{MemoryMB: 1, DiskMB: 8, NumDisks: -1},
		{MemoryMB: 1, DiskMB: 8, DiskTapeSpeedRatio: -2},
	}
	for i, cfg := range bad {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if _, err := NewSystem(Config{MemoryMB: 16, DiskMB: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionChangesSpeed(t *testing.T) {
	run := func(c Compression) time.Duration {
		sys, err := NewSystem(Config{MemoryMB: 1, DiskMB: 8, Profile: IdealTape, Compression: c})
		if err != nil {
			t.Fatal(err)
		}
		r, s := makeRelations(t, sys)
		res, err := sys.Join(DTNB, r, s)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Response
	}
	slow, base, fast := run(Compress0), run(Compress25), run(Compress50)
	if !(fast < base && base < slow) {
		t.Fatalf("compression ordering wrong: 0%%=%v 25%%=%v 50%%=%v", slow, base, fast)
	}
}

func TestCheckFeasible(t *testing.T) {
	sys := quickSystem(t, 1, 1) // D = 1 MB < |R| = 2 MB
	r, s := makeRelations(t, sys)
	if err := sys.CheckFeasible(DTNB, r, s); err == nil {
		t.Fatal("DT-NB should be infeasible with D < |R|")
	}
	if err := sys.CheckFeasible(CTTGH, r, s); err != nil {
		t.Fatalf("CTT-GH should run with D < |R|: %v", err)
	}
	if err := sys.CheckFeasible("bogus", r, s); err == nil {
		t.Fatal("unknown method should fail")
	}
}

func TestEstimateAndAdvise(t *testing.T) {
	sys := quickSystem(t, 16, 500)
	e := sys.Estimate(CTTGH, 2500, 10000)
	if !e.Feasible || e.Response <= 0 || e.RelativeCost <= 1 {
		t.Fatalf("estimate = %+v", e)
	}
	// The paper's Experiment 1 regime: |R| far beyond D. Only CTT-GH
	// (with scratch) is feasible.
	ranked := sys.Advise(2500, 10000, 5000, 0)
	if len(ranked) != 7 {
		t.Fatalf("ranked %d", len(ranked))
	}
	if ranked[0].Method != CTTGH || !ranked[0].Feasible {
		t.Fatalf("best = %+v, want CTT-GH", ranked[0])
	}
	for _, e := range ranked[1:] {
		if e.Method != CTTGH && e.Feasible && e.Response < ranked[0].Response {
			t.Fatalf("ranking violated: %+v", e)
		}
	}
	// Methods that do not fit carry a reason.
	last := ranked[len(ranked)-1]
	if last.Feasible || last.Reason == "" {
		t.Fatalf("last = %+v, want infeasible with reason", last)
	}
}

// TestEstimateAgreesWithCheckFeasible sweeps M, D and the relation
// sizes over the seven paper methods: Estimate (tape scratch
// unbounded) calls a method feasible exactly when CheckFeasible (with
// ample scratch) accepts it, and Advise never recommends a method that
// CheckFeasible refuses. Both read the one footprint per method.
func TestEstimateAgreesWithCheckFeasible(t *testing.T) {
	maker, err := NewSystem(Config{MemoryMB: 1, DiskMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer maker.Close()
	const scratchMB = 256 // room for any method's hashed or sorted copies
	type pair struct {
		rMB, sMB int64
		r, s     *Relation
	}
	var pairs []pair
	for _, sz := range [][2]int64{{1, 4}, {4, 16}, {8, 64}, {16, 64}} {
		rel := func(name string, mb int64) *Relation {
			tp, err := maker.NewTape("tape-"+name, mb+scratchMB)
			if err != nil {
				t.Fatal(err)
			}
			r, err := maker.CreateRelation(tp, RelationConfig{Name: name, SizeMB: mb})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		pairs = append(pairs, pair{sz[0], sz[1], rel("R", sz[0]), rel("S", sz[1])})
	}
	cells := 0
	for _, mem := range []float64{0.5, 1, 2, 4} {
		for _, disk := range []float64{2, 4, 8, 16, 32} {
			sys, err := NewSystem(Config{MemoryMB: mem, DiskMB: disk})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				for _, m := range []Method{DTNB, CDTNBMB, CDTNBDB, DTGH, CDTGH, CTTGH, TTGH} {
					est := sys.Estimate(m, p.rMB, p.sMB)
					chk := sys.CheckFeasible(m, p.r, p.s)
					if est.Feasible != (chk == nil) {
						t.Errorf("M=%g D=%g |R|=%d |S|=%d %s: Estimate feasible=%v (%s), CheckFeasible: %v",
							mem, disk, p.rMB, p.sMB, m, est.Feasible, est.Reason, chk)
					}
					cells++
				}
				best := sys.Advise(p.rMB, p.sMB, scratchMB, scratchMB)[0]
				if best.Feasible {
					if err := sys.CheckFeasible(best.Method, p.r, p.s); err != nil {
						t.Errorf("M=%g D=%g |R|=%d |S|=%d: Advise picks %s, CheckFeasible: %v",
							mem, disk, p.rMB, p.sMB, best.Method, err)
					}
				}
			}
			sys.Close()
		}
	}
	if cells != 560 {
		t.Fatalf("swept %d cells, want 560", cells)
	}
}

func TestEstimateAgreesWithSimulationShape(t *testing.T) {
	// The analytic model and the ideal-profile simulation should
	// agree within a factor of two on a mid-size CDT-GH join.
	sys := quickSystem(t, 2, 24)
	r, s := makeRelations(t, sys)
	sim, err := sys.Join(CDTGH, r, s)
	if err != nil {
		t.Fatal(err)
	}
	est := sys.Estimate(CDTGH, r.SizeMB(), s.SizeMB())
	ratio := float64(sim.Stats.Response) / float64(est.Response)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("sim %v vs model %v (ratio %.2f); want within 2x", sim.Stats.Response, est.Response, ratio)
	}
}

func TestSplitBufferingAblation(t *testing.T) {
	run := func(split bool) time.Duration {
		sys, err := NewSystem(Config{MemoryMB: 1, DiskMB: 8, Profile: IdealTape, SplitBuffering: split})
		if err != nil {
			t.Fatal(err)
		}
		r, s := makeRelations(t, sys)
		res, err := sys.Join(CDTNBDB, r, s)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Response
	}
	inter, split := run(false), run(true)
	if split <= inter {
		t.Fatalf("split buffering (%v) should be slower than interleaved (%v)", split, inter)
	}
}

func TestBufferTraceInResult(t *testing.T) {
	sys := quickSystem(t, 1, 4)
	r, s := makeRelations(t, sys)
	res, err := sys.Join(CTTGH, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BufferTrace) == 0 || res.BufferCapacityMB <= 0 {
		t.Fatal("CTT-GH should expose a buffer trace")
	}
	for _, smp := range res.BufferTrace {
		if smp.EvenMB+smp.OddMB > res.BufferCapacityMB+1e-9 {
			t.Fatalf("sample %+v exceeds capacity %v", smp, res.BufferCapacityMB)
		}
	}
}

func TestMBConversion(t *testing.T) {
	if BlocksPerMB != 16 {
		t.Fatalf("BlocksPerMB = %d, want 16 (64 KB blocks)", BlocksPerMB)
	}
	if MB(3) != 48 {
		t.Fatalf("MB(3) = %d", MB(3))
	}
}

// TestSampleSurvivesUnitRestart: a DT-NB unit that fails after
// emitting pairs and restarts must leave the facade's sample, match
// count and output hash exactly as the clean run leaves them — the
// failed attempt's pairs are neither counted nor sampled.
func TestSampleSurvivesUnitRestart(t *testing.T) {
	run := func(faults string) *Result {
		sys, err := NewSystem(Config{MemoryMB: 1, DiskMB: 4, Profile: IdealTape, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		tR, err := sys.NewTape("R-tape", 32)
		if err != nil {
			t.Fatal(err)
		}
		tS, err := sys.NewTape("S-tape", 32)
		if err != nil {
			t.Fatal(err)
		}
		// A dense key space, so the unit the fault fails has already
		// emitted pairs.
		r, err := sys.CreateRelation(tR, RelationConfig{Name: "R", SizeMB: 2, KeySpace: 200, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sys.CreateRelation(tS, RelationConfig{Name: "S", SizeMB: 8, KeySpace: 200, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.JoinWith(DTNB, r, s, JoinOptions{Sample: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run("")
	// Disk block 12 lies mid-scan of R's disk copy: the read outlives
	// its retry budget (1 + 4 attempts) and fails the unit once.
	faulted := run("transient=disk:12:6")
	if faulted.Stats.UnitRestarts != 1 {
		t.Fatalf("UnitRestarts = %d, want 1", faulted.Stats.UnitRestarts)
	}
	if clean.Stats.Matches == 0 || len(clean.Sample) != int(clean.Stats.Matches) {
		t.Fatalf("clean run sampled %d of %d matches; want all of a non-empty output",
			len(clean.Sample), clean.Stats.Matches)
	}
	if faulted.Stats.Matches != clean.Stats.Matches || faulted.Stats.OutputHash != clean.Stats.OutputHash {
		t.Fatalf("faulted matches/hash %d/%x, clean %d/%x", faulted.Stats.Matches,
			faulted.Stats.OutputHash, clean.Stats.Matches, clean.Stats.OutputHash)
	}
	if !reflect.DeepEqual(faulted.Sample, clean.Sample) {
		t.Fatalf("faulted run sampled %d pairs, clean %d; samples differ",
			len(faulted.Sample), len(clean.Sample))
	}
}

// TestSampleSinkKeepsNothingFromEmit enforces the join.Sink lifetime
// rule on the facade's sink: pairs delivered from scratch memory that
// is overwritten right after each Emit leave the same digest and the
// same sample as pairs delivered from stable memory.
func TestSampleSinkKeepsNothingFromEmit(t *testing.T) {
	feed := func(transient bool) *sampleSink {
		s := &sampleSink{cap: 5}
		for i := 0; i < 12; i++ {
			rp, sp := []byte{byte(i), 1, 2}, []byte{byte(i), 9}
			if transient {
				buf := append(append([]byte(nil), rp...), sp...)
				rp, sp = buf[:len(rp)], buf[len(rp):]
				s.Emit(nil, block.Tuple{Key: uint64(i), Payload: rp}, block.Tuple{Key: uint64(i) + 100, Payload: sp})
				for j := range buf {
					buf[j] = 0xA5
				}
				continue
			}
			s.Emit(nil, block.Tuple{Key: uint64(i), Payload: rp}, block.Tuple{Key: uint64(i) + 100, Payload: sp})
		}
		return s
	}
	if want, got := feed(false), feed(true); !reflect.DeepEqual(got, want) {
		t.Fatalf("transient feed left %+v, stable feed %+v", got, want)
	}
}
