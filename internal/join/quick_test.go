package join

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/tape"
)

// TestQuickAllMethodsAgreeOnRandomConfigs drives randomized relation
// sizes, key spaces and resource budgets through every join method:
// all feasible methods must produce the identical match count and
// order-independent key checksum, equal to the generator's analytic
// expectation. Configurations that do not fit must fail with a typed error,
// never a deadlock or wrong answer.
func TestQuickAllMethodsAgreeOnRandomConfigs(t *testing.T) {
	f := func(rSeed, sSeed uint8, mSeed, dSeed uint16, keySeed uint16) bool {
		rBlocks := int64(rSeed%20) + 4 // 4..23
		sBlocks := rBlocks * (2 + int64(sSeed%3))
		m := int64(mSeed%24) + 4 // 4..27
		d := int64(dSeed%96) + 8 // 8..103
		keySpace := uint64(keySeed%500) + 20

		mkSpec := func() Spec {
			mR := tape.NewMedia("qr", rBlocks+sBlocks+64)
			mS := tape.NewMedia("qs", sBlocks+rBlocks+64)
			r, err := relation.WriteToTape(relation.Config{
				Name: "R", Tag: 1, Blocks: rBlocks, TuplesPerBlock: 3,
				KeySpace: keySpace, Seed: int64(rSeed) + 1,
			}, mR)
			if err != nil {
				t.Fatal(err)
			}
			s, err := relation.WriteToTape(relation.Config{
				Name: "S", Tag: 2, Blocks: sBlocks, TuplesPerBlock: 3,
				KeySpace: keySpace, Seed: int64(sSeed) + 1000,
			}, mS)
			if err != nil {
				t.Fatal(err)
			}
			return Spec{R: r, S: s}
		}
		want := relation.ExpectedMatches(mkSpec().R, mkSpec().S)

		var keySum uint64
		haveKeySum := false
		for _, m2 := range Methods() {
			spec := mkSpec()
			res := fastRes(m, d)
			sink := &CountSink{}
			_, err := Run(m2, spec, res, sink)
			if err != nil {
				// Must be a typed feasibility error.
				if errors.Is(err, ErrNeedDiskForR) || errors.Is(err, ErrNeedMemory) ||
					errors.Is(err, ErrNeedTapeScratch) || errors.Is(err, ErrNeedDisk) {
					continue
				}
				t.Logf("%s on R=%d S=%d M=%d D=%d key=%d: %v",
					m2.Symbol(), rBlocks, sBlocks, m, d, keySpace, err)
				return false
			}
			if sink.Matches != want {
				t.Logf("%s: %d matches, want %d (R=%d S=%d M=%d D=%d)",
					m2.Symbol(), sink.Matches, want, rBlocks, sBlocks, m, d)
				return false
			}
			if haveKeySum && sink.KeySum != keySum {
				t.Logf("%s: checksum mismatch", m2.Symbol())
				return false
			}
			keySum, haveKeySum = sink.KeySum, true
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSkewedConfigsStayExact repeats the agreement check with
// heavily skewed keys, exercising the bucket-overflow fallback.
func TestQuickSkewedConfigsStayExact(t *testing.T) {
	f := func(seed uint8, hotP uint8) bool {
		// Strictly positive: Validate rejects HotFraction > 0 with
		// HotProb == 0 as an inconsistent skew spec.
		hotProb := float64(hotP%90+1) / 100
		mkSpec := func() Spec {
			mR := tape.NewMedia("qr", 512)
			mS := tape.NewMedia("qs", 512)
			r, err := relation.WriteToTape(relation.Config{
				Name: "R", Tag: 1, Blocks: 20, TuplesPerBlock: 4, KeySpace: 300,
				HotFraction: 0.01, HotProb: hotProb, Seed: int64(seed),
			}, mR)
			if err != nil {
				t.Fatal(err)
			}
			s, err := relation.WriteToTape(relation.Config{
				Name: "S", Tag: 2, Blocks: 80, TuplesPerBlock: 4, KeySpace: 300,
				HotFraction: 0.01, HotProb: hotProb / 2, Seed: int64(seed) + 99,
			}, mS)
			if err != nil {
				t.Fatal(err)
			}
			return Spec{R: r, S: s}
		}
		want := relation.ExpectedMatches(mkSpec().R, mkSpec().S)
		for _, sym := range []string{"DT-GH", "CDT-GH", "CTT-GH"} {
			m, _ := BySymbol(sym)
			sink := &CountSink{}
			if _, err := Run(m, mkSpec(), fastRes(8, 80), sink); err != nil {
				t.Logf("%s: %v", sym, err)
				return false
			}
			if sink.Matches != want {
				t.Logf("%s: %d != %d (hotProb %.2f)", sym, sink.Matches, want, hotProb)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
