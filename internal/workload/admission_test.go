package workload

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/relation"
	"repro/internal/tape"
)

// relOfBlocks fabricates a relation descriptor of the given size —
// admission control reads only Region.N, so no tape write is needed.
func relOfBlocks(name string, blocks int64) *relation.Relation {
	return &relation.Relation{
		Config: relation.Config{Name: name, Blocks: blocks, TuplesPerBlock: 4},
		Media:  tape.NewMedia("m-"+name, blocks),
		Region: tape.Region{N: blocks},
	}
}

// TestAdmitSharedBoundaries drives admitShared to its exact budget
// edges: the M/k memory split, a zero-memory complex, and disk
// exhausted by the cache carve-out. Greedy packing is deterministic,
// so the admitted/rejected partition is pinned exactly.
//
// The feasibility cases run on a fast disk with negligible positioning
// and a 4096-block S, so a pass costs about one tape read of S against
// one per rider solo: the price never binds there, and only the
// feasibility edges decide. The priced cases run on the paper's disk
// (X_D = 2 X_T, 18 ms per request), where re-scanning R per S chunk can
// cost more than the solo joins the pass replaces.
func TestAdmitSharedBoundaries(t *testing.T) {
	fast := func(mem, disk, chunk int64) join.Resources {
		return join.Resources{
			MemoryBlocks: mem, DiskBlocks: disk, NumDisks: 2,
			DiskRate: 100 * tape.Ideal().EffectiveRate(), DiskOverhead: time.Nanosecond,
			Tape: tape.Ideal(), IOChunk: chunk,
		}
	}
	paper := func(mem, disk, chunk int64) join.Resources {
		return join.Resources{
			MemoryBlocks: mem, DiskBlocks: disk, NumDisks: 2,
			DiskRate: 2 * tape.Ideal().EffectiveRate(),
			Tape:     tape.Ideal(), IOChunk: chunk,
		}
	}
	qsOver := func(sBlocks int64, rBlocks ...int64) []Query {
		out := make([]Query, len(rBlocks))
		s := relOfBlocks("S", sBlocks)
		for i, rb := range rBlocks {
			out[i] = Query{ID: string(rune('a' + i)), R: relOfBlocks("R", rb), S: s}
		}
		return out
	}
	qs := func(rBlocks ...int64) []Query { return qsOver(4096, rBlocks...) }
	idx := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}

	cases := []struct {
		name         string
		cfg          Config
		res          join.Resources
		queries      []Query
		wantAdmitted []int
		wantRejected []int
		wantNotes    []string
	}{
		{
			// Disk budget met exactly: 16+16 staged R blocks == the 32
			// free disk blocks. The boundary itself admits; one more
			// rider would overflow and is rejected.
			name:         "exactly at disk budget",
			cfg:          Config{MaxShared: 4},
			res:          fast(20, 32, 8),
			queries:      qs(16, 16, 16),
			wantAdmitted: []int{0, 1},
			wantRejected: []int{2},
		},
		{
			// M/k split at its edge: M=4 and an uncapped chunk give
			// mr=2, msLeft=1 for the seed (admit), mr=1, msLeft=1 for a
			// second rider (admit), and k=3 drives msLeft to 0 — the
			// third rider must fall back to solo service.
			name:         "exactly at M/k budget",
			cfg:          Config{MaxShared: 4},
			res:          fast(4, 400, 100),
			queries:      qs(4, 4, 4),
			wantAdmitted: []int{0, 1},
			wantRejected: []int{2},
		},
		{
			// Zero memory: no rider can hold even one R buffer plus two
			// S buffers, so nothing is admitted.
			name:         "zero-memory budget",
			cfg:          Config{MaxShared: 4},
			res:          fast(0, 400, 8),
			queries:      qs(16, 16),
			wantAdmitted: nil,
			wantRejected: []int{0, 1},
		},
		{
			// Cache carve-out exhausts the disk: D=400 would fit all
			// three staged copies, but CacheBlocks=360 leaves 40 free —
			// exactly two 16-block R copies plus change.
			name:         "cache-budget exhaustion",
			cfg:          Config{MaxShared: 4, CacheBlocks: 360},
			res:          fast(20, 400, 8),
			queries:      qs(16, 16, 16),
			wantAdmitted: []int{0, 1},
			wantRejected: []int{2},
		},
		{
			// Same complex without the carve-out: all three fit.
			name:         "no carve-out control",
			cfg:          Config{MaxShared: 4},
			res:          fast(20, 400, 8),
			queries:      qs(16, 16, 16),
			wantAdmitted: []int{0, 1, 2},
			wantRejected: nil,
		},
		{
			// All three fit, but at M/3 a rider re-reads its R in
			// 3-block requests once per 5-block S chunk: the pass is an
			// NB join deep in the regime where solo methods win. The
			// price trims riders from the back until one is left, and
			// the group runs solo.
			name:         "priced out entirely",
			cfg:          Config{MaxShared: 4},
			res:          paper(20, 400, 8),
			queries:      qsOver(96, 16, 16, 16),
			wantAdmitted: []int{0},
			wantRejected: []int{1, 2},
			wantNotes: []string{
				"shared pass over S=S priced 35 s vs solo 16 s: c runs solo",
				"shared pass over S=S priced 21 s vs solo 10 s: b runs solo",
			},
		},
		{
			// With twice the memory, four riders still lose to solo
			// service, but three do: only the last rider is trimmed.
			name:         "priced down to three riders",
			cfg:          Config{MaxShared: 4},
			res:          paper(40, 400, 8),
			queries:      qsOver(1024, 16, 16, 16, 16),
			wantAdmitted: []int{0, 1, 2},
			wantRejected: []int{3},
			wantNotes: []string{
				"shared pass over S=S priced 195 s vs solo 167 s: d runs solo",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			admitted, rejected, notes := admitShared(tc.cfg, tc.res.WithDefaults(), tc.queries, idx(len(tc.queries)))
			if !reflect.DeepEqual(admitted, tc.wantAdmitted) {
				t.Errorf("admitted = %v, want %v", admitted, tc.wantAdmitted)
			}
			if !reflect.DeepEqual(rejected, tc.wantRejected) {
				t.Errorf("rejected = %v, want %v", rejected, tc.wantRejected)
			}
			if !reflect.DeepEqual(notes, tc.wantNotes) {
				t.Errorf("notes = %q, want %q", notes, tc.wantNotes)
			}
		})
	}
}

// TestRejectionReasonsTyped pins the typed-reason contract on the
// engine's rejection paths under every policy: a query no method can
// serve fails with Reason "<kind>: <detail>" where kind is
// ReasonInfeasible — never free text.
func TestRejectionReasonsTyped(t *testing.T) {
	for _, policy := range []Policy{FIFO, MountAware, SharedScan} {
		t.Run(policy.String(), func(t *testing.T) {
			b := makeBatch(t, policy, 0)
			// Starve the complex: 2 memory blocks cannot run any method
			// over a 16-block R.
			b.cfg.Resources.MemoryBlocks = 2
			b.cfg.Resources.DiskBlocks = 4
			out, err := Run(b.cfg, b.queries[:3])
			if err != nil {
				t.Fatal(err)
			}
			for _, qr := range out.Queries {
				if !qr.Failed {
					t.Fatalf("query %s served on a starved complex", qr.ID)
				}
				if !strings.HasPrefix(qr.Reason, ReasonInfeasible+": ") {
					t.Errorf("query %s: reason %q lacks typed prefix %q", qr.ID, qr.Reason, ReasonInfeasible)
				}
			}
		})
	}
}
