package join

import (
	"errors"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/tape"
)

// simNewKernelForSM and mkSMBlocks are small local helpers for the
// workspace tests.
func simNewKernelForSM() *sim.Kernel { return sim.NewKernel() }

func mkSMBlocks(n int, base uint64) []block.Block {
	out := make([]block.Block, n)
	for i := range out {
		b := block.NewBuilder(1)
		b.Append(block.Tuple{Key: base + uint64(i)})
		out[i] = b.Finish()
	}
	return out
}

// smSpec gives the sort-merge baseline the generous scratch it needs.
func smSpec(t *testing.T, rBlocks, sBlocks int64) Spec {
	t.Helper()
	mR := tape.NewMedia("sm-r", (rBlocks+sBlocks)*3+64)
	mS := tape.NewMedia("sm-s", (rBlocks+sBlocks)*3+64)
	r, err := relation.WriteToTape(relation.Config{
		Name: "R", Tag: 1, Blocks: rBlocks, TuplesPerBlock: 4, KeySpace: 150, Seed: 11,
	}, mR)
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation.WriteToTape(relation.Config{
		Name: "S", Tag: 2, Blocks: sBlocks, TuplesPerBlock: 4, KeySpace: 150, Seed: 22,
	}, mS)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{R: r, S: s}
}

func TestTTSMProducesExactOutput(t *testing.T) {
	spec := smSpec(t, 24, 96)
	want := relation.ExpectedMatches(spec.R, spec.S)
	sink := &CountSink{}
	result, err := Run(TTSM{}, spec, fastRes(10, 64), sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Matches != want {
		t.Fatalf("matches = %d, want %d", sink.Matches, want)
	}
	// Sorting both relations takes multiple passes over each.
	if result.Stats.RScans < 2 {
		t.Fatalf("RScans = %d, want >= 2 (run formation + merges)", result.Stats.RScans)
	}
	if result.Stats.TapeBlocksWritten < spec.R.Region.N+spec.S.Region.N {
		t.Fatalf("tape writes = %d, want >= |R|+|S|", result.Stats.TapeBlocksWritten)
	}
}

func TestTTSMChecksumMatchesHashMethods(t *testing.T) {
	spec := smSpec(t, 24, 96)
	smSink := &CountSink{}
	if _, err := Run(TTSM{}, spec, fastRes(10, 64), smSink); err != nil {
		t.Fatal(err)
	}
	spec2 := smSpec(t, 24, 96)
	ghSink := &CountSink{}
	if _, err := Run(DTGH{}, spec2, fastRes(10, 64), ghSink); err != nil {
		t.Fatal(err)
	}
	if smSink.Matches != ghSink.Matches || smSink.KeySum != ghSink.KeySum {
		t.Fatalf("TT-SM (%d/%d) disagrees with DT-GH (%d/%d)",
			smSink.Matches, smSink.KeySum, ghSink.Matches, ghSink.KeySum)
	}
}

func TestTTSMTinyMemoryManyPasses(t *testing.T) {
	// M = 4 blocks forces 2-way merges: many passes, still exact.
	spec := smSpec(t, 16, 48)
	want := relation.ExpectedMatches(spec.R, spec.S)
	sink := &CountSink{}
	result, err := Run(TTSM{}, spec, fastRes(4, 32), sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Matches != want {
		t.Fatalf("matches = %d, want %d", sink.Matches, want)
	}
	if result.Stats.Iterations < 3 {
		t.Fatalf("merge passes = %d, want several at M=4", result.Stats.Iterations)
	}
}

func TestTTSMFeasibility(t *testing.T) {
	spec := smSpec(t, 24, 96)
	if err := Check(TTSM{}, spec, fastRes(3, 64)); !errors.Is(err, ErrNeedMemory) {
		t.Fatalf("err = %v, want ErrNeedMemory", err)
	}
	// Tight cartridges: no workspace room.
	mR := tape.NewMedia("t1", 130)
	mS := tape.NewMedia("t2", 130)
	r, _ := relation.WriteToTape(relation.Config{
		Name: "R", Tag: 1, Blocks: 24, TuplesPerBlock: 2, KeySpace: 100, Seed: 1}, mR)
	s, _ := relation.WriteToTape(relation.Config{
		Name: "S", Tag: 2, Blocks: 96, TuplesPerBlock: 2, KeySpace: 100, Seed: 2}, mS)
	if err := Check(TTSM{}, Spec{R: r, S: s}, fastRes(10, 64)); !errors.Is(err, ErrNeedTapeScratch) {
		t.Fatalf("err = %v, want ErrNeedTapeScratch", err)
	}
}

func TestTTSMLosesToHashingOnRealTape(t *testing.T) {
	// The baseline's raison d'etre: with DLT-4000 seeks, interleaved
	// merge reads make sort-merge far slower than CTT-GH.
	run := func(m Method) time.Duration {
		spec := smSpec(t, 24, 96)
		res := fastRes(8, 24)
		res.Tape = tape.DLT4000()
		result, err := Run(m, spec, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		return result.Stats.Response
	}
	sm := run(TTSM{})
	gh := run(CTTGH{})
	if sm < 2*gh {
		t.Fatalf("TT-SM (%v) should lose to CTT-GH (%v) by a wide margin", sm, gh)
	}
}

func TestBySymbolFindsBaseline(t *testing.T) {
	m, err := BySymbol("TT-SM")
	if err != nil || m.Symbol() != "TT-SM" {
		t.Fatalf("BySymbol: %v %v", m, err)
	}
	if len(AllMethods()) != 9 {
		t.Fatalf("AllMethods = %d, want 9", len(AllMethods()))
	}
	// Methods() remains the paper's seven.
	if len(Methods()) != 7 {
		t.Fatalf("Methods = %d, want 7", len(Methods()))
	}
}

func TestSMFanIn(t *testing.T) {
	cases := []struct {
		m, ioChunk int64
		minK       int
	}{
		{4, 32, 2},
		{12, 32, 2},
		{48, 32, 2},
		{256, 32, 4},
		{1024, 32, 4},
	}
	for _, c := range cases {
		k, inBuf, outBuf := smFanIn(c.m, c.ioChunk)
		if k < c.minK {
			t.Errorf("smFanIn(%d): k = %d, want >= %d", c.m, k, c.minK)
		}
		if inBuf < 1 || outBuf < 1 {
			t.Errorf("smFanIn(%d): inBuf=%d outBuf=%d", c.m, inBuf, outBuf)
		}
		if int64(k)*inBuf+outBuf > c.m {
			t.Errorf("smFanIn(%d): k*inBuf+outBuf = %d exceeds M", c.m, int64(k)*inBuf+outBuf)
		}
	}
}

func TestSMWorkspaceOverwriteReuse(t *testing.T) {
	k := simNewKernelForSM()
	cfg := tape.DriveConfig{NativeRate: 64 * 1024, CompressionFactor: 1}
	d := tape.NewDrive(k, "w", cfg, nil)
	m := tape.NewMedia("t", 100)
	m.AppendSetup(mkSMBlocks(5, 0))
	d.Load(m)
	ws := &smWorkspace{drive: d}
	k.Spawn("p", func(p *sim.Proc) {
		// Pass 1 appends at EOD=5.
		r1, err := ws.write(p, mkSMBlocks(4, 100))
		if err != nil {
			t.Error(err)
		}
		if r1.Start != 5 || r1.N != 4 {
			t.Errorf("pass1 region = %+v", r1)
		}
		// Pass 2 overwrites in place from the same base.
		ws.reset()
		r2, err := ws.write(p, mkSMBlocks(3, 200))
		if err != nil {
			t.Error(err)
		}
		if r2.Start != 5 || r2.N != 3 {
			t.Errorf("pass2 region = %+v", r2)
		}
		// Contents reflect the second pass.
		blks, err := m.ReadSetup(tape.Region{Start: 5, N: 3})
		if err != nil {
			t.Error(err)
		}
		_, tuples := blks[0].MustDecode()
		if tuples[0].Key != 200 {
			t.Errorf("key = %d, want 200", tuples[0].Key)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestProbeNarrowSkipsMatchlessStretches runs TT-SM on a pair where
// R's keys cluster at the bottom of a wide keyspace S covers uniformly:
// the trailing S stream has long sorted stretches with no R key, which
// the fence-index narrowing must leap over — with output identical to
// the plain merge and no more virtual time.
func TestProbeNarrowSkipsMatchlessStretches(t *testing.T) {
	mkSpec := func() Spec {
		mR := tape.NewMedia("pn-r", 1024)
		mS := tape.NewMedia("pn-s", 1024)
		r, err := relation.WriteToTape(relation.Config{
			Name: "R", Tag: 1, Blocks: 16, TuplesPerBlock: 4, KeySpace: 100000,
			HotFraction: 0.0005, HotProb: 0.95, Seed: 31,
		}, mR)
		if err != nil {
			t.Fatal(err)
		}
		s, err := relation.WriteToTape(relation.Config{
			Name: "S", Tag: 2, Blocks: 128, TuplesPerBlock: 4, KeySpace: 100000, Seed: 32,
		}, mS)
		if err != nil {
			t.Fatal(err)
		}
		return Spec{R: r, S: s}
	}
	run := func(narrow bool) (Stats, int64, uint64) {
		sink := &CountSink{}
		res := fastRes(10, 64)
		res.ProbeNarrow = narrow
		result, err := Run(TTSM{}, mkSpec(), res, sink)
		if err != nil {
			t.Fatal(err)
		}
		return result.Stats, sink.Matches, sink.KeySum
	}
	plain, plainMatches, plainSum := run(false)
	if plain.ProbeJumps != 0 || plain.ProbeSkippedBlocks != 0 {
		t.Fatalf("plain run recorded probe jumps: %+v", plain)
	}
	narrowed, matches, sum := run(true)
	if matches != plainMatches || sum != plainSum {
		t.Fatalf("narrowed output differs: %d/%d vs %d/%d", matches, sum, plainMatches, plainSum)
	}
	if narrowed.ProbeJumps < 1 || narrowed.ProbeSkippedBlocks < 1 {
		t.Fatalf("no narrowing happened: jumps=%d skipped=%d",
			narrowed.ProbeJumps, narrowed.ProbeSkippedBlocks)
	}
	if narrowed.TapeBlocksRead >= plain.TapeBlocksRead {
		t.Fatalf("narrowing read %d tape blocks, plain read %d",
			narrowed.TapeBlocksRead, plain.TapeBlocksRead)
	}
	if narrowed.Response > plain.Response {
		t.Fatalf("narrowing slower: %v vs %v", narrowed.Response, plain.Response)
	}
	t.Logf("jumps=%d skipped=%d blocks, response %v -> %v",
		narrowed.ProbeJumps, narrowed.ProbeSkippedBlocks, plain.Response, narrowed.Response)
}
