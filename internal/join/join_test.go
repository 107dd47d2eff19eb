package join

import (
	"errors"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/tape"
)

// testSpec builds a small R (24 blocks) and S (96 blocks) pair with
// generous scratch space on both cartridges.
func testSpec(t *testing.T) Spec {
	t.Helper()
	return specWithSizes(t, 24, 96, 4)
}

func specWithSizes(t testing.TB, rBlocks, sBlocks int64, tuplesPerBlock int) Spec {
	t.Helper()
	mR := tape.NewMedia("tapeR", rBlocks+sBlocks+256)
	mS := tape.NewMedia("tapeS", sBlocks+rBlocks+256)
	r, err := relation.WriteToTape(relation.Config{
		Name: "R", Tag: 1, Blocks: rBlocks, TuplesPerBlock: tuplesPerBlock,
		KeySpace: 200, PayloadBytes: 8, Seed: 11,
	}, mR)
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation.WriteToTape(relation.Config{
		Name: "S", Tag: 2, Blocks: sBlocks, TuplesPerBlock: tuplesPerBlock,
		KeySpace: 200, PayloadBytes: 8, Seed: 22,
	}, mS)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{R: r, S: s}
}

// fastRes returns ideal-model resources (no seeks or penalties) sized
// for the small test spec.
func fastRes(m, d int64) Resources {
	return Resources{
		MemoryBlocks: m,
		DiskBlocks:   d,
		NumDisks:     2,
		DiskRate:     2 * tape.Ideal().EffectiveRate(),
		Tape:         tape.Ideal(),
		IOChunk:      8,
	}
}

func TestAllMethodsProduceIdenticalCorrectOutput(t *testing.T) {
	spec := testSpec(t)
	want := relation.ExpectedMatches(spec.R, spec.S)
	if want == 0 {
		t.Fatal("test relations have no matches; bad generator config")
	}
	var wantKeySum uint64
	first := true

	for _, m := range Methods() {
		m := m
		t.Run(m.Symbol(), func(t *testing.T) {
			// Fresh media per method: tape-tape methods consume
			// scratch space.
			spec := testSpec(t)
			sink := &CountSink{}
			res := fastRes(10, 64)
			result, err := Run(m, spec, res, sink)
			if err != nil {
				t.Fatal(err)
			}
			if sink.Matches != want {
				t.Fatalf("matches = %d, want %d", sink.Matches, want)
			}
			if result.Stats.OutputTuples != want {
				t.Fatalf("stats.OutputTuples = %d, want %d", result.Stats.OutputTuples, want)
			}
			if first {
				wantKeySum = sink.KeySum
				first = false
			} else if sink.KeySum != wantKeySum {
				t.Fatalf("key checksum = %d, want %d", sink.KeySum, wantKeySum)
			}
			if result.Stats.Response <= 0 {
				t.Fatal("no virtual time elapsed")
			}
			if result.Stats.StepI <= 0 || result.Stats.StepI > result.Stats.Response {
				t.Fatalf("StepI = %v outside (0, %v]", result.Stats.StepI, result.Stats.Response)
			}
		})
	}
}

func TestMethodsMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Methods() {
		if m.Name() == "" || m.Symbol() == "" {
			t.Fatalf("method %T lacks name/symbol", m)
		}
		if seen[m.Symbol()] {
			t.Fatalf("duplicate symbol %s", m.Symbol())
		}
		seen[m.Symbol()] = true
		got, err := BySymbol(m.Symbol())
		if err != nil || got.Symbol() != m.Symbol() {
			t.Fatalf("BySymbol(%s): %v", m.Symbol(), err)
		}
	}
	if len(seen) != 7 {
		t.Fatalf("%d methods, want 7", len(seen))
	}
	if _, err := BySymbol("nope"); err == nil {
		t.Fatal("BySymbol should fail for unknown method")
	}
}

func TestSequentialMethodsRespectMemoryBudget(t *testing.T) {
	for _, sym := range []string{"DT-NB", "DT-GH", "TT-GH"} {
		m, _ := BySymbol(sym)
		spec := testSpec(t)
		res := fastRes(10, 64)
		result, err := Run(m, spec, res, nil)
		if err != nil {
			t.Fatalf("%s: %v", sym, err)
		}
		if result.Stats.MemHighWater > res.MemoryBlocks {
			t.Errorf("%s: memory high water %d > M %d", sym, result.Stats.MemHighWater, res.MemoryBlocks)
		}
	}
}

func TestConcurrentMethodsBoundedMemory(t *testing.T) {
	// Concurrent methods may overlap producer and consumer memory
	// (the paper's Table 2 idealization); the combined peak stays
	// within 2M.
	for _, sym := range []string{"CDT-NB/MB", "CDT-NB/DB", "CDT-GH", "CTT-GH"} {
		m, _ := BySymbol(sym)
		spec := testSpec(t)
		res := fastRes(10, 64)
		result, err := Run(m, spec, res, nil)
		if err != nil {
			t.Fatalf("%s: %v", sym, err)
		}
		if result.Stats.MemHighWater > 2*res.MemoryBlocks {
			t.Errorf("%s: memory high water %d > 2M %d", sym, result.Stats.MemHighWater, 2*res.MemoryBlocks)
		}
	}
}

func TestDiskHighWaterMatchesTable2(t *testing.T) {
	spec := testSpec(t) // |R| = 24
	res := fastRes(10, 64)

	run := func(sym string) Stats {
		m, _ := BySymbol(sym)
		spec := testSpec(t)
		result, err := Run(m, spec, res, nil)
		if err != nil {
			t.Fatalf("%s: %v", sym, err)
		}
		return result.Stats
	}

	r := spec.R.Region.N
	// DT-NB and CDT-NB/MB use exactly |R| of disk.
	if st := run("DT-NB"); st.DiskHighWater != r {
		t.Errorf("DT-NB disk high water = %d, want |R| = %d", st.DiskHighWater, r)
	}
	if st := run("CDT-NB/MB"); st.DiskHighWater != r {
		t.Errorf("CDT-NB/MB disk high water = %d, want |R| = %d", st.DiskHighWater, r)
	}
	// CDT-NB/DB adds the S chunk buffer.
	if st := run("CDT-NB/DB"); st.DiskHighWater <= r {
		t.Errorf("CDT-NB/DB disk high water = %d, want > |R|", st.DiskHighWater)
	}
	// GH methods use roughly |R| (+ partial blocks) for R's buckets
	// plus the S buffer; more than |R|, bounded by D.
	for _, sym := range []string{"DT-GH", "CDT-GH"} {
		if st := run(sym); st.DiskHighWater <= r || st.DiskHighWater > res.DiskBlocks {
			t.Errorf("%s disk high water = %d, want in (|R|, D]", sym, st.DiskHighWater)
		}
	}
	// Tape-tape methods use disk only as an assembly/buffer area,
	// bounded by D, never staging all of R plus a buffer.
	for _, sym := range []string{"CTT-GH", "TT-GH"} {
		if st := run(sym); st.DiskHighWater > res.DiskBlocks {
			t.Errorf("%s disk high water = %d > D = %d", sym, st.DiskHighWater, res.DiskBlocks)
		}
	}
}

func TestCTTGHUsesTapeScratchNotDiskForR(t *testing.T) {
	spec := testSpec(t)
	r := spec.R.Region.N
	eodBefore := spec.R.Media.EOD()
	m, _ := BySymbol("CTT-GH")
	res := fastRes(10, 20) // D < |R|: disk-tape methods cannot run
	result, err := Run(m, spec, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The hashed copy of R was appended to the R tape.
	grew := int64(spec.R.Media.EOD() - eodBefore)
	if grew < r {
		t.Fatalf("R tape grew %d blocks, want >= |R| = %d", grew, r)
	}
	if result.Stats.DiskHighWater > 20 {
		t.Fatalf("disk high water %d > D", result.Stats.DiskHighWater)
	}
}

func TestFeasibilityErrors(t *testing.T) {
	spec := testSpec(t)

	t.Run("disk-tape methods need D >= |R|", func(t *testing.T) {
		for _, sym := range []string{"DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH"} {
			m, _ := BySymbol(sym)
			if err := Check(m, spec, fastRes(10, 10)); !errors.Is(err, ErrNeedDiskForR) {
				t.Errorf("%s: err = %v, want ErrNeedDiskForR", sym, err)
			}
		}
	})
	t.Run("GH methods need M >= sqrt(|R|)", func(t *testing.T) {
		big := specWithSizes(t, 200, 400, 2)
		for _, sym := range []string{"DT-GH", "CDT-GH", "CTT-GH", "TT-GH"} {
			m, _ := BySymbol(sym)
			if err := Check(m, big, fastRes(5, 1000)); !errors.Is(err, ErrNeedMemory) {
				t.Errorf("%s: err = %v, want ErrNeedMemory", sym, err)
			}
		}
	})
	t.Run("tape-tape methods need scratch tape", func(t *testing.T) {
		mR := tape.NewMedia("tr", 25) // no room beyond R itself
		mS := tape.NewMedia("ts", 200)
		r, err := relation.WriteToTape(relation.Config{
			Name: "R", Tag: 1, Blocks: 24, TuplesPerBlock: 2, KeySpace: 100, Seed: 1,
		}, mR)
		if err != nil {
			t.Fatal(err)
		}
		s, err := relation.WriteToTape(relation.Config{
			Name: "S", Tag: 2, Blocks: 96, TuplesPerBlock: 2, KeySpace: 100, Seed: 2,
		}, mS)
		if err != nil {
			t.Fatal(err)
		}
		tight := Spec{R: r, S: s}
		for _, sym := range []string{"CTT-GH", "TT-GH"} {
			m, _ := BySymbol(sym)
			if err := Check(m, tight, fastRes(10, 64)); !errors.Is(err, ErrNeedTapeScratch) {
				t.Errorf("%s: err = %v, want ErrNeedTapeScratch", sym, err)
			}
		}
	})
	t.Run("run surfaces check errors", func(t *testing.T) {
		m, _ := BySymbol("DT-NB")
		if _, err := Run(m, spec, fastRes(10, 5), nil); !errors.Is(err, ErrNeedDiskForR) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestSpecValidation(t *testing.T) {
	spec := testSpec(t)
	m, _ := BySymbol("DT-NB")

	if _, err := Run(m, Spec{R: spec.R}, fastRes(10, 64), nil); err == nil {
		t.Error("nil S should fail")
	}
	swapped := Spec{R: spec.S, S: spec.R}
	if _, err := Run(m, swapped, fastRes(10, 64), nil); err == nil {
		t.Error("|R| > |S| should fail")
	}
	same := Spec{R: spec.R, S: spec.R}
	if _, err := Run(m, same, fastRes(10, 64), nil); err == nil {
		t.Error("same cartridge should fail")
	}
}

func TestResourceValidation(t *testing.T) {
	spec := testSpec(t)
	m, _ := BySymbol("DT-NB")
	bad := fastRes(1, 64) // M < 2
	if _, err := Run(m, spec, bad, nil); err == nil {
		t.Error("M=1 should fail validation")
	}
	bad = fastRes(10, 0)
	if _, err := Run(m, spec, bad, nil); err == nil {
		t.Error("D=0 should fail validation")
	}
}

// measure runs a method on a fresh spec and returns its response time.
func measure(t *testing.T, sym string, mk func(t *testing.T) Spec, res Resources) time.Duration {
	t.Helper()
	m, _ := BySymbol(sym)
	result, err := Run(m, mk(t), res, nil)
	if err != nil {
		t.Fatalf("%s: %v", sym, err)
	}
	return result.Stats.Response
}

func TestConcurrentVariantsOverlapIO(t *testing.T) {
	// The paper's Section 9 findings, at small scale:
	//
	// (a) When a large fraction of R fits in memory and disks are
	// fast, CDT-NB/MB overlaps tape input with the join and beats
	// DT-NB despite its doubled iterations.
	mkSmallR := func(t *testing.T) Spec { return specWithSizes(t, 12, 96, 4) }
	bigM := fastRes(16, 96)
	bigM.DiskRate = 4 * tape.Ideal().EffectiveRate()
	bigM.DiskOverhead = time.Millisecond
	if mb, seq := measure(t, "CDT-NB/MB", mkSmallR, bigM), measure(t, "DT-NB", mkSmallR, bigM); mb >= seq {
		t.Errorf("large M: CDT-NB/MB (%v) not faster than DT-NB (%v)", mb, seq)
	}

	// (b) With little memory the join is dominated by R scans;
	// CDT-NB/DB hides the whole tape read behind them and beats
	// DT-NB. Disks faster relative to tape make the staging cost
	// negligible (the paper's slower-tape case, Figure 10).
	mkBigR := func(t *testing.T) Spec { return specWithSizes(t, 24, 96, 4) }
	smallM := fastRes(4, 96)
	smallM.DiskRate = 4 * tape.Ideal().EffectiveRate()
	smallM.DiskOverhead = time.Millisecond
	if db, seq := measure(t, "CDT-NB/DB", mkBigR, smallM), measure(t, "DT-NB", mkBigR, smallM); db >= seq {
		t.Errorf("small M: CDT-NB/DB (%v) not faster than DT-NB (%v)", db, seq)
	}

	// (c) CDT-GH overlaps hashing chunk i+1 with joining chunk i and
	// beats DT-GH across the range ("the wide margin between CDT-GH
	// and DT-GH demonstrates the advantage of parallel I/O").
	midM := fastRes(10, 64)
	midM.DiskOverhead = time.Millisecond
	if gh, seq := measure(t, "CDT-GH", mkBigR, midM), measure(t, "DT-GH", mkBigR, midM); gh >= seq {
		t.Errorf("CDT-GH (%v) not faster than DT-GH (%v)", gh, seq)
	}
}

func TestStatsAccounting(t *testing.T) {
	m, _ := BySymbol("DT-GH")
	spec := testSpec(t)
	res := fastRes(10, 64)
	result, err := Run(m, spec, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := result.Stats
	// Both relations read from tape exactly once.
	if st.TapeBlocksRead != spec.R.Region.N+spec.S.Region.N {
		t.Errorf("tape blocks read = %d, want %d", st.TapeBlocksRead, spec.R.Region.N+spec.S.Region.N)
	}
	if st.TapeBlocksWritten != 0 {
		t.Errorf("DT-GH wrote %d tape blocks, want 0", st.TapeBlocksWritten)
	}
	// Disk traffic: write R buckets once; per iteration write + read
	// the S chunk and re-read R's buckets.
	if st.DiskBlocksWritten < spec.R.Region.N+spec.S.Region.N {
		t.Errorf("disk writes = %d, want >= %d", st.DiskBlocksWritten, spec.R.Region.N+spec.S.Region.N)
	}
	wantReads := int64(st.Iterations)*spec.R.Region.N + spec.S.Region.N
	if st.DiskBlocksRead < wantReads {
		t.Errorf("disk reads = %d, want >= %d", st.DiskBlocksRead, wantReads)
	}
	if st.Iterations < 1 || st.RScans != 1+st.Iterations {
		t.Errorf("iterations=%d rscans=%d", st.Iterations, st.RScans)
	}
}

func TestSkewedRelationTriggersOverflowFallbackCorrectly(t *testing.T) {
	// Heavy skew makes one R bucket exceed memory; the fallback must
	// still produce exact output.
	mR := tape.NewMedia("tr", 1024)
	mS := tape.NewMedia("ts", 1024)
	r, err := relation.WriteToTape(relation.Config{
		Name: "R", Tag: 1, Blocks: 24, TuplesPerBlock: 4, KeySpace: 500,
		HotFraction: 0.002, HotProb: 0.7, Seed: 5,
	}, mR)
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation.WriteToTape(relation.Config{
		Name: "S", Tag: 2, Blocks: 96, TuplesPerBlock: 4, KeySpace: 500,
		HotFraction: 0.002, HotProb: 0.3, Seed: 6,
	}, mS)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{R: r, S: s}
	want := relation.ExpectedMatches(r, s)
	for _, sym := range []string{"DT-GH", "CDT-GH", "CTT-GH", "TT-GH"} {
		m, _ := BySymbol(sym)
		sink := &CountSink{}
		if _, err := Run(m, spec, fastRes(8, 96), sink); err != nil {
			t.Fatalf("%s: %v", sym, err)
		}
		if sink.Matches != want {
			t.Fatalf("%s: matches = %d, want %d", sym, sink.Matches, want)
		}
		// Fresh media for the next tape-tape run.
		mR.Truncate(r.Region.End())
		mS.Truncate(s.Region.End())
	}
}

func TestSplitDisciplineDoublesIterations(t *testing.T) {
	mRun := func(d Discipline) Stats {
		m, _ := BySymbol("CDT-NB/DB")
		spec := testSpec(t)
		res := fastRes(10, 64)
		res.Discipline = d
		result, err := Run(m, spec, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		return result.Stats
	}
	inter := mRun(Interleaved)
	split := mRun(SplitHalves)
	if split.Iterations < 2*inter.Iterations-1 {
		t.Fatalf("split iterations = %d, interleaved = %d; want ~double", split.Iterations, inter.Iterations)
	}
	if split.Response <= inter.Response {
		t.Fatalf("split (%v) should be slower than interleaved (%v)", split.Response, inter.Response)
	}
}

func TestBufferTraceExposedForBufferedMethods(t *testing.T) {
	m, _ := BySymbol("CTT-GH")
	spec := testSpec(t)
	result, err := Run(m, spec, fastRes(10, 24), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.BufferTrace) == 0 || result.BufferCapacity == 0 {
		t.Fatal("CTT-GH should expose a buffer trace")
	}
	for _, s := range result.BufferTrace {
		if s.Total() > result.BufferCapacity {
			t.Fatalf("trace sample %+v exceeds capacity %d", s, result.BufferCapacity)
		}
	}
}

func TestPairSinkRecordsMatchingKeys(t *testing.T) {
	m, _ := BySymbol("DT-NB")
	spec := testSpec(t)
	sink := &PairSink{}
	if _, err := Run(m, spec, fastRes(10, 64), sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Pairs) == 0 {
		t.Fatal("no pairs")
	}
	for _, pr := range sink.Pairs {
		if pr[0] != pr[1] {
			t.Fatalf("emitted non-matching pair %v", pr)
		}
	}
}
