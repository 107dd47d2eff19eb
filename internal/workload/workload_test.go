package workload

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/tape"
)

// batch builds a fresh 9-query workload over three S cartridges and
// two R cartridges, interleaved so FIFO churns mounts: consecutive
// queries almost always need a different S cartridge, while several
// queries reuse the same R (cache fodder) and four share S1's
// relation exactly (shared-scan fodder). Media are stateful, so every
// policy run gets a fresh build.
type batch struct {
	cfg     Config
	queries []Query
	// expect maps query ID to the exact join cardinality.
	expect map[string]int64
}

// tapeRel writes a generated fixture relation to m: 4 tuples per
// block, 8-byte payloads, keys drawn from 200 values.
func tapeRel(t *testing.T, name string, tag byte, blocks, seed int64, m tape.Medium) *relation.Relation {
	t.Helper()
	r, err := relation.WriteToTape(relation.Config{
		Name: name, Tag: tag, Blocks: blocks, TuplesPerBlock: 4,
		KeySpace: 200, PayloadBytes: 8, Seed: seed,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func makeBatch(t *testing.T, policy Policy, cacheBlocks int64) *batch {
	t.Helper()
	mS1 := tape.NewMedia("S1", 4096)
	mS2 := tape.NewMedia("S2", 4096)
	mS3 := tape.NewMedia("S3", 4096)
	mRA := tape.NewMedia("RA", 4096)
	mRB := tape.NewMedia("RB", 4096)

	s1 := tapeRel(t, "S1", 100, 96, 1, mS1)
	s2 := tapeRel(t, "S2", 101, 96, 2, mS2)
	s3 := tapeRel(t, "S3", 102, 96, 3, mS3)
	r1 := tapeRel(t, "R1", 1, 16, 11, mRA)
	r2 := tapeRel(t, "R2", 2, 16, 12, mRA)
	r3 := tapeRel(t, "R3", 3, 16, 13, mRB)
	r4 := tapeRel(t, "R4", 4, 16, 14, mRB)

	// Submission order alternates S cartridges on nearly every step.
	pairs := []struct {
		r *relation.Relation
		s *relation.Relation
	}{
		{r1, s1}, {r3, s2}, {r1, s1}, {r2, s3}, {r2, s1},
		{r4, s2}, {r1, s1}, {r3, s3}, {r1, s2},
	}
	b := &batch{expect: make(map[string]int64)}
	for i, pr := range pairs {
		q := Query{
			ID:     "q" + string(rune('0'+i)),
			Method: "CDT-NB/MB",
			R:      pr.r, S: pr.s,
		}
		b.queries = append(b.queries, q)
		b.expect[q.ID] = relation.ExpectedMatches(pr.r, pr.s)
	}
	b.cfg = Config{
		Resources: join.Resources{
			MemoryBlocks: 20,
			DiskBlocks:   400,
			NumDisks:     2,
			DiskRate:     2 * tape.Ideal().EffectiveRate(),
			Tape:         tape.Ideal(),
			IOChunk:      8,
		},
		Policy:      policy,
		CacheBlocks: cacheBlocks,
		MountTime:   30 * time.Second,
	}
	return b
}

// makeSharingBatch is makeBatch on M = 64 blocks, where a shared pass
// really wins: each rider re-scans its 16-block R once per S chunk of
// 16 blocks or more, which is cheap next to the 96-block solo S read it
// saves, so
// admission prices every same-S group onto a pass and the simulated
// makespan beats mount-aware's. At makeBatch's M = 20 the pass loses,
// and admission prices it out.
func makeSharingBatch(t *testing.T, policy Policy, cacheBlocks int64) *batch {
	t.Helper()
	b := makeBatch(t, policy, cacheBlocks)
	b.cfg.Resources.MemoryBlocks = 64
	return b
}

func runBatch(t *testing.T, policy Policy, cacheBlocks int64) *BatchResult {
	t.Helper()
	return runBuilt(t, makeBatch(t, policy, cacheBlocks))
}

// runBuilt runs a built batch and checks every query's cardinality.
func runBuilt(t *testing.T, b *batch) *BatchResult {
	t.Helper()
	out, err := Run(b.cfg, b.queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, qr := range out.Queries {
		if qr.Failed {
			t.Fatalf("query %s failed: %s", qr.ID, qr.Reason)
		}
		if want := b.expect[qr.ID]; qr.Matches != want {
			t.Errorf("%s (%s): matches = %d, want %d", qr.ID, qr.Method, qr.Matches, want)
		}
	}
	return out
}

func TestFIFOCorrectness(t *testing.T) {
	out := runBatch(t, FIFO, 0)
	if out.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if out.SharedPasses != 0 {
		t.Fatalf("FIFO ran %d shared passes", out.SharedPasses)
	}
	// The interleaved order forces an S-cartridge switch on almost
	// every query.
	if out.SMounts < 7 {
		t.Fatalf("FIFO charged only %d S mounts; batch should thrash", out.SMounts)
	}
}

func TestMountAwareReducesMounts(t *testing.T) {
	fifo := runBatch(t, FIFO, 0)
	aware := runBatch(t, MountAware, 0)
	if aware.Mounts >= fifo.Mounts {
		t.Fatalf("mount-aware mounts = %d, want < FIFO's %d", aware.Mounts, fifo.Mounts)
	}
	// Three S cartridges: the grouped order mounts each exactly once.
	if aware.SMounts != 3 {
		t.Fatalf("mount-aware S mounts = %d, want 3", aware.SMounts)
	}
	if aware.Makespan >= fifo.Makespan {
		t.Fatalf("mount-aware makespan %v not better than FIFO %v", aware.Makespan, fifo.Makespan)
	}
}

func TestSharedScanBeatsFIFO(t *testing.T) {
	fifo := runBuilt(t, makeSharingBatch(t, FIFO, 0))
	aware := runBuilt(t, makeSharingBatch(t, MountAware, 0))
	shared := runBuilt(t, makeSharingBatch(t, SharedScan, 0))
	if shared.SharedPasses != 3 {
		t.Fatalf("shared-scan policy ran %d shared passes, want one per S relation (3)", shared.SharedPasses)
	}
	if shared.Makespan >= fifo.Makespan {
		t.Fatalf("shared-scan makespan %v not better than FIFO %v", shared.Makespan, fifo.Makespan)
	}
	// The price admitted these passes because they win: the simulation
	// must agree against the best solo schedule too.
	if shared.Makespan >= aware.Makespan {
		t.Fatalf("shared-scan makespan %v not better than mount-aware %v", shared.Makespan, aware.Makespan)
	}
	// One pass per S relation reads strictly less tape than nine solo
	// S scans.
	if shared.TapeBlocksRead >= fifo.TapeBlocksRead {
		t.Fatalf("shared-scan tape reads %d not below FIFO's %d",
			shared.TapeBlocksRead, fifo.TapeBlocksRead)
	}
	var riders int
	for _, qr := range shared.Queries {
		if qr.Shared {
			riders++
			if qr.Method != "SHARED" {
				t.Fatalf("rider %s reports method %q", qr.ID, qr.Method)
			}
		}
	}
	if riders != len(shared.Queries) {
		t.Fatalf("%d of %d queries rode a shared pass", riders, len(shared.Queries))
	}
}

func TestStagingCacheHits(t *testing.T) {
	cold := runBatch(t, MountAware, 0)
	if cold.CacheHits != 0 {
		t.Fatalf("cache disabled but %d hits", cold.CacheHits)
	}
	warm := runBatch(t, MountAware, 64)
	if warm.CacheHits == 0 {
		t.Fatal("no cache hits despite repeated R relations")
	}
	var hits int
	for _, qr := range warm.Queries {
		if qr.CacheHit {
			hits++
		}
	}
	if int64(hits) != warm.CacheHits {
		t.Fatalf("per-query hits %d != batch hits %d", hits, warm.CacheHits)
	}
	// Cached R partitions replace tape re-reads.
	if warm.TapeBlocksRead >= cold.TapeBlocksRead {
		t.Fatalf("warm cache tape reads %d not below cold %d",
			warm.TapeBlocksRead, cold.TapeBlocksRead)
	}
}

func TestCacheEviction(t *testing.T) {
	// A cache that holds only one 16-block R forces evictions as the
	// batch alternates R relations.
	out := runBatch(t, MountAware, 16)
	if out.CacheEvictions == 0 {
		t.Fatal("no evictions despite 16-block cache and four R relations")
	}
}

// TestDeterministicSchedule is the reproducibility gate: the same
// batch and seed must yield a byte-identical schedule log, an
// identical device event trace, and deep-equal results.
func TestDeterministicSchedule(t *testing.T) {
	for _, policy := range []Policy{FIFO, MountAware, SharedScan} {
		t.Run(policy.String(), func(t *testing.T) {
			run := func() (*BatchResult, []obs.Event) {
				b := makeSharingBatch(t, policy, 64)
				tr := obs.NewTracker()
				b.cfg.Resources.Spans = tr
				out, err := Run(b.cfg, b.queries)
				if err != nil {
					t.Fatal(err)
				}
				return out, tr.Events()
			}
			out1, ev1 := run()
			out2, ev2 := run()
			if s1, s2 := strings.Join(out1.Schedule, "\n"), strings.Join(out2.Schedule, "\n"); s1 != s2 {
				t.Fatalf("schedule logs differ:\n--- run1\n%s\n--- run2\n%s", s1, s2)
			}
			if !reflect.DeepEqual(out1, out2) {
				t.Fatal("batch results differ between identical runs")
			}
			if !reflect.DeepEqual(ev1, ev2) {
				t.Fatalf("event traces differ: %d vs %d events", len(ev1), len(ev2))
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{FIFO, MountAware, SharedScan} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

func TestAdvisorSubstitution(t *testing.T) {
	b := makeBatch(t, FIFO, 0)
	// Request a method that is infeasible on the query's disk
	// partition: CDT-NB/DB needs D >= |R| + Ms = 16 + 18 at M=20, but
	// the budget below only offers 24 blocks. The engine must
	// substitute a feasible method rather than fail.
	b.cfg.Resources.DiskBlocks = 24
	b.queries = b.queries[:1]
	b.queries[0].Method = "CDT-NB/DB"
	out, err := Run(b.cfg, b.queries)
	if err != nil {
		t.Fatal(err)
	}
	qr := out.Queries[0]
	if qr.Failed {
		t.Fatalf("query failed: %s", qr.Reason)
	}
	if !qr.Substituted || qr.Method == "TT-GH" {
		t.Fatalf("want substitution away from TT-GH, got method=%s substituted=%v",
			qr.Method, qr.Substituted)
	}
	if want := b.expect["q0"]; qr.Matches != want {
		t.Fatalf("matches = %d, want %d", qr.Matches, want)
	}
}

func TestQueueWaitMonotone(t *testing.T) {
	out := runBatch(t, FIFO, 0)
	var prev sim.Duration = -1
	for _, qr := range out.Queries {
		if qr.Wait < 0 || qr.End < qr.Start {
			t.Fatalf("query %s has bad interval [%v, %v]", qr.ID, qr.Start, qr.End)
		}
		if qr.Start < prev {
			t.Fatalf("FIFO start times not monotone at %s", qr.ID)
		}
		prev = qr.Start
	}
}
