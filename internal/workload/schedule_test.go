package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/join"
	"repro/internal/relation"
	"repro/internal/tape"
)

// wholeBatchPlan is the reference the picker must replay: the policies
// written as one pass over a closed batch. fifo keeps submission order;
// mount-aware groups by S cartridge in order of first appearance, then
// by R cartridge likewise; shared-scan groups that order by S relation,
// serves each group's StopAfter queries alone, and offers the rest to
// admitShared MaxShared at a time. A solo step is rendered as its query
// index, a shared pass as its bracketed index list, and admission notes
// as lines of their own.
func wholeBatchPlan(cfg Config, res join.Resources, queries []Query) []string {
	groupBy := func(items []int, key func(int) any) [][]int {
		var order []any
		groups := map[any][]int{}
		for _, it := range items {
			k := key(it)
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], it)
		}
		out := make([][]int, len(order))
		for i, k := range order {
			out[i] = groups[k]
		}
		return out
	}
	var order []int
	if cfg.Policy == FIFO {
		order = indices(len(queries))
	} else {
		for _, sg := range groupBy(indices(len(queries)), func(i int) any { return queries[i].S.Media }) {
			for _, rg := range groupBy(sg, func(i int) any { return queries[i].R.Media }) {
				order = append(order, rg...)
			}
		}
	}
	var out []string
	if cfg.Policy != SharedScan {
		for _, i := range order {
			out = append(out, fmt.Sprint(i))
		}
		return out
	}
	for _, full := range groupBy(order, func(i int) any { return queries[i].S }) {
		var group []int
		for _, i := range full {
			if queries[i].StopAfter > 0 {
				out = append(out, fmt.Sprint(i))
			} else {
				group = append(group, i)
			}
		}
		for len(group) > 0 {
			cand := group[:min(len(group), cfg.MaxShared)]
			group = group[len(cand):]
			admitted, rejected, notes := admitShared(cfg, res, queries, cand)
			out = append(out, notes...)
			if len(admitted) >= 2 {
				out = append(out, fmt.Sprint(admitted))
			} else {
				rejected = append(admitted, rejected...)
			}
			for _, i := range rejected {
				out = append(out, fmt.Sprint(i))
			}
		}
	}
	return out
}

// TestPickReplaysWholeBatchPlan queues random closed batches — S
// relations sharing cartridges, R cartridges interleaved, StopAfter
// queries, tight and loose memory — and checks that picking until the
// queue is empty serves exactly wholeBatchPlan's steps, notes included,
// under every policy.
func TestPickReplaysWholeBatchPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		rel := func(name string, blocks int64, m tape.Medium) *relation.Relation {
			return &relation.Relation{
				Config: relation.Config{Name: name, Blocks: blocks, TuplesPerBlock: 4},
				Media:  m, Region: tape.Region{N: blocks},
			}
		}
		media := func(prefix string, n int) []tape.Medium {
			out := make([]tape.Medium, n)
			for i := range out {
				out[i] = tape.NewMedia(fmt.Sprintf("%s%d", prefix, i), 1<<20)
			}
			return out
		}
		sMedia, rMedia := media("SC", 1+rng.Intn(3)), media("RC", 1+rng.Intn(3))
		var ss, rs []*relation.Relation
		for i := 0; i < 1+rng.Intn(4); i++ {
			ss = append(ss, rel(fmt.Sprintf("S%d", i), 96+int64(rng.Intn(900)), sMedia[rng.Intn(len(sMedia))]))
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			rs = append(rs, rel(fmt.Sprintf("R%d", i), 8+int64(rng.Intn(40)), rMedia[rng.Intn(len(rMedia))]))
		}
		var queries []Query
		for i := 0; i < 1+rng.Intn(14); i++ {
			q := Query{ID: fmt.Sprintf("q%d", i), R: rs[rng.Intn(len(rs))], S: ss[rng.Intn(len(ss))]}
			if rng.Intn(5) == 0 {
				q.StopAfter = 10
			}
			queries = append(queries, q)
		}
		res := join.Resources{
			MemoryBlocks: []int64{20, 40, 64, 128}[rng.Intn(4)], DiskBlocks: 400, NumDisks: 2,
			DiskRate: 2 * tape.Ideal().EffectiveRate(), Tape: tape.Ideal(), IOChunk: 8,
		}.WithDefaults()
		for _, policy := range []Policy{FIFO, MountAware, SharedScan} {
			cfg := Config{Policy: policy, MaxShared: 1 + rng.Intn(4)}
			want := wholeBatchPlan(cfg, res, queries)

			e := &OnlineEngine{}
			for _, q := range queries {
				e.enqueueLocked(OnlineQuery{Query: q})
			}
			var got []string
			var last *Query
			for len(e.queue) > 0 {
				for _, st := range pick(cfg, res, e.queue, last) {
					got = append(got, st.notes...)
					var idx []int
					for _, pq := range st.members {
						idx = append(idx, int(pq.seq-1))
					}
					if st.shared {
						got = append(got, fmt.Sprint(idx))
					} else {
						got = append(got, fmt.Sprint(idx[0]))
					}
					e.queue = without(e.queue, st.members)
					last = &st.members[len(st.members)-1].q.Query
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s, MaxShared %d:\n got  %q\n want %q", trial, policy, cfg.MaxShared, got, want)
			}
		}
	}
}
