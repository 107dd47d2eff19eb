package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/relation"
	"repro/internal/tape"
)

// sweepBatch builds the regret sweep's batch: 8 queries over two S
// relations (one cartridge each) and three R relations (R1 and R2 share
// a cartridge), in a submission order that alternates S on every query,
// so each S relation gathers four same-S candidates for a shared pass.
func sweepBatch(t *testing.T, policy Policy, mem, rBlocks, sBlocks, cacheBlocks int64) *batch {
	t.Helper()
	mS1, mS2 := tape.NewMedia("S1", 4096), tape.NewMedia("S2", 4096)
	mRA, mRB := tape.NewMedia("RA", 4096), tape.NewMedia("RB", 4096)
	s1, s2 := tapeRel(t, "S1", 100, sBlocks, 1, mS1), tapeRel(t, "S2", 101, sBlocks, 2, mS2)
	r1, r2 := tapeRel(t, "R1", 1, rBlocks, 11, mRA), tapeRel(t, "R2", 2, rBlocks, 12, mRA)
	r3 := tapeRel(t, "R3", 3, rBlocks, 13, mRB)
	pairs := [][2]*relation.Relation{
		{r1, s1}, {r2, s2}, {r3, s1}, {r1, s2},
		{r2, s1}, {r3, s2}, {r1, s1}, {r2, s2},
	}
	b := &batch{expect: make(map[string]int64)}
	for i, pr := range pairs {
		q := Query{ID: fmt.Sprintf("q%d", i), R: pr[0], S: pr[1]}
		b.queries = append(b.queries, q)
		b.expect[q.ID] = relation.ExpectedMatches(pr[0], pr[1])
	}
	b.cfg = Config{
		Resources: join.Resources{
			MemoryBlocks: mem, DiskBlocks: 400, NumDisks: 2,
			DiskRate: 2 * tape.Ideal().EffectiveRate(),
			Tape:     tape.Ideal(), IOChunk: 8,
		},
		Policy:      policy,
		CacheBlocks: cacheBlocks,
		MountTime:   30 * time.Second,
	}
	return b
}

// TestSharedScanNeverLosesToMountAware is the regret sweep of the
// shared-pass price: over M, |R|, |S| and the staging cache, the
// shared-scan policy's makespan must stay within 10 % of mount-aware's
// (which never shares), and sharing must still be chosen — and win — on
// most of the swept geometries.
func TestSharedScanNeverLosesToMountAware(t *testing.T) {
	var points, wins int
	worst, worstAt := 0.0, ""
	for _, mem := range []int64{20, 40, 64, 128, 256} {
		for _, r := range []int64{8, 16, 32, 64} {
			for _, s := range []int64{96, 384, 1024} {
				for _, cache := range []int64{0, 128} {
					run := func(policy Policy) *BatchResult {
						b := sweepBatch(t, policy, mem, r, s, cache)
						out, err := Run(b.cfg, b.queries)
						if err != nil {
							t.Fatal(err)
						}
						for _, qr := range out.Queries {
							if qr.Failed || qr.Matches != b.expect[qr.ID] {
								t.Fatalf("M=%d R=%d S=%d cache=%d %s: %s failed=%v matches=%d want %d",
									mem, r, s, cache, policy, qr.ID, qr.Failed, qr.Matches, b.expect[qr.ID])
							}
						}
						return out
					}
					shared, aware := run(SharedScan), run(MountAware)
					ratio := shared.Makespan.Seconds() / aware.Makespan.Seconds()
					at := fmt.Sprintf("M=%d R=%d S=%d cache=%d", mem, r, s, cache)
					points++
					if shared.SharedPasses > 0 && ratio < 1 {
						wins++
					}
					if ratio > worst {
						worst, worstAt = ratio, at
					}
					t.Logf("%s: shared-scan/mount-aware = %.3f (%d shared passes)", at, ratio, shared.SharedPasses)
				}
			}
		}
	}
	t.Logf("%d points, %d share and win; max ratio %v at %s", points, wins, worst, worstAt)
	if worst > 1.10 {
		t.Errorf("shared-scan makespan %.3f× mount-aware's at %s, want <= 1.10", worst, worstAt)
	}
	if wins < 70 {
		t.Errorf("sharing chosen and winning at %d of %d points, want >= 70", wins, points)
	}
}
