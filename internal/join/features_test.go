package join

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/tape"
)

func TestCorruptInputSurfacesChecksumError(t *testing.T) {
	mR := tape.NewMedia("tr", 256)
	mS := tape.NewMedia("ts", 256)
	r, err := relation.WriteToTape(relation.Config{
		Name: "R", Tag: 1, Blocks: 24, TuplesPerBlock: 4, KeySpace: 100, Seed: 1,
	}, mR)
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation.WriteToTape(relation.Config{
		Name: "S", Tag: 2, Blocks: 96, TuplesPerBlock: 4, KeySpace: 100, Seed: 2,
	}, mS)
	if err != nil {
		t.Fatal(err)
	}
	// Silent corruption mid-relation; with recovery off no re-read
	// heals it.
	res := fastRes(10, 64)
	res.DisableRecovery = true
	res.Faults = mustFaults("corrupt=S:50")

	m, _ := BySymbol("DT-NB")
	_, err = Run(m, Spec{R: r, S: s}, res, nil)
	if err == nil {
		t.Fatal("corrupted input should fail the join")
	}
	if !errors.Is(err, block.ErrBadChecksum) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error should be the checksum error: %v", err)
	}
}

func TestHardMediaErrorSurfaces(t *testing.T) {
	mR := tape.NewMedia("tr", 256)
	mS := tape.NewMedia("ts", 256)
	r, _ := relation.WriteToTape(relation.Config{
		Name: "R", Tag: 1, Blocks: 24, TuplesPerBlock: 2, KeySpace: 100, Seed: 1,
	}, mR)
	s, _ := relation.WriteToTape(relation.Config{
		Name: "S", Tag: 2, Blocks: 96, TuplesPerBlock: 2, KeySpace: 100, Seed: 2,
	}, mS)
	res := fastRes(10, 64)
	res.Faults = mustFaults("hard=R:10")

	m, _ := BySymbol("DT-GH")
	_, err := Run(m, Spec{R: r, S: s}, res, nil)
	if !errors.Is(err, fault.ErrMedia) {
		t.Fatalf("err = %v, want fault.ErrMedia", err)
	}
}

func TestJoinOverMultiVolumeTapes(t *testing.T) {
	// S spans four cartridges behind a robot; the join must still be
	// exact and charge exchanges.
	vols := make([]*tape.Media, 4)
	for i := range vols {
		vols[i] = tape.NewMedia("sv", 30)
	}
	mvS, err := tape.NewMultiVolume("s-set", vols...)
	if err != nil {
		t.Fatal(err)
	}
	mR := tape.NewMedia("tr", 256)
	r, err := relation.WriteToTape(relation.Config{
		Name: "R", Tag: 1, Blocks: 24, TuplesPerBlock: 4, KeySpace: 200, Seed: 11,
	}, mR)
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation.WriteToTape(relation.Config{
		Name: "S", Tag: 2, Blocks: 96, TuplesPerBlock: 4, KeySpace: 200, Seed: 22,
	}, mvS)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.ExpectedMatches(r, s)

	res := fastRes(10, 64)
	res.Tape.ExchangeTime = 30 * time.Second
	sink := &CountSink{}
	result, err := Run(DTNB{}, Spec{R: r, S: s}, res, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Matches != want {
		t.Fatalf("matches = %d, want %d", sink.Matches, want)
	}
	// Reading S end-to-end crosses 3 volume boundaries exactly once.
	if result.Stats.Response <= 0 {
		t.Fatal("no time elapsed")
	}

	// The same join on a single cartridge is faster by exactly the
	// exchange overhead (3 x 30 s), validating the paper's Section
	// 3.2 claim that exchanges are negligible for sequential scans.
	mS1 := tape.NewMedia("ts", 256)
	s1, _ := relation.WriteToTape(relation.Config{
		Name: "S", Tag: 2, Blocks: 96, TuplesPerBlock: 4, KeySpace: 200, Seed: 22,
	}, mS1)
	result1, err := Run(DTNB{}, Spec{R: r, S: s1}, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := result.Stats.Response - result1.Stats.Response
	if delta != 3*30*time.Second {
		t.Fatalf("multi-volume overhead = %v, want exactly 90s of exchanges", delta)
	}
}

func TestReverseReadsSpeedUpCTTGH(t *testing.T) {
	run := func(biDir bool) Stats {
		spec := testSpec(t)
		// Memory comfortably above the bucket size, so every bucket
		// loads in one piece and the reverse chain never breaks.
		res := fastRes(12, 24)
		res.Tape.SeekFixed = 10 * time.Second
		res.Tape.SeekPerBlock = 100 * time.Millisecond
		res.Tape.BiDirectional = biDir
		result, err := Run(CTTGH{}, spec, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		return result.Stats
	}
	fwd := run(false)
	rev := run(true)
	if rev.Response >= fwd.Response {
		t.Fatalf("bi-directional (%v) should beat forward-only (%v)", rev.Response, fwd.Response)
	}
	if rev.TapeSeeks >= fwd.TapeSeeks {
		t.Fatalf("bi-directional seeks %d should be below forward-only %d", rev.TapeSeeks, fwd.TapeSeeks)
	}
	// Output must be identical either way.
	if rev.OutputTuples != fwd.OutputTuples {
		t.Fatalf("outputs differ: %d vs %d", rev.OutputTuples, fwd.OutputTuples)
	}
}

func TestGroupCountSinkAggregates(t *testing.T) {
	spec := testSpec(t)
	agg := &GroupCountSink{}
	if _, err := Run(DTNB{}, spec, fastRes(10, 64), agg); err != nil {
		t.Fatal(err)
	}
	// The aggregate must fold exactly the expected matches.
	var total int64
	for _, c := range agg.Counts {
		total += c
	}
	want := relation.ExpectedMatches(spec.R, spec.S)
	if total != want || agg.Count() != want {
		t.Fatalf("aggregated %d (Count %d), want %d", total, agg.Count(), want)
	}
	// Cross-check one key against the generators.
	rCounts := spec.R.KeyCounts()
	sCounts := spec.S.KeyCounts()
	for k, c := range agg.Counts {
		if want := rCounts[k] * sCounts[k]; c != want {
			t.Fatalf("key %d: %d matches, want %d", k, c, want)
		}
	}
}

func TestDeviceUtilizationReported(t *testing.T) {
	spec := testSpec(t)
	result, err := Run(CDTGH{}, spec, fastRes(10, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := result.Stats
	for name, busy := range map[string]time.Duration{
		"tapeR": st.TapeRBusy, "tapeS": st.TapeSBusy, "disk": st.DiskBusy,
	} {
		if busy <= 0 || busy > st.Response*2 { // disk array may sum 2 drives
			t.Errorf("%s busy = %v vs response %v", name, busy, st.Response)
		}
	}
	// S is read exactly once from tape at full rate: its drive busy
	// time must be meaningfully below the response (it idles between
	// chunks).
	if st.TapeSBusy >= st.Response {
		t.Errorf("S drive busy %v >= response %v", st.TapeSBusy, st.Response)
	}
}
