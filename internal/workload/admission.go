package workload

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/join"
)

// admitShared decides which of a same-S candidate group may join one
// shared tape pass, partitioning M and D across the riders so every
// admitted query still satisfies its method's Table 2 row. A shared
// rider behaves like DT-NB on its partition: a disk-resident R probed
// against memory-buffered S chunks, so DT-NB's footprint (D >= |R|,
// M >= 2) is the one each share must fit. Candidates that don't fit
// fall back to solo execution.
//
// The packing is greedy in candidate order (deterministic): a rider is
// admitted while
//
//   - DT-NB's footprint fits its equal M share and a D of |R|,
//   - the staged R copies of all admitted riders fit the disk that is
//     left after the cache carve-out,
//   - the residual S buffers stay >= 1 block per double buffer.
//
// Feasible is not cheap: the pass is an NB join at M/k per rider, which
// loses to solo Grace Hash once R is large relative to M. So while two
// or more riders remain and cost.EstimateShared exceeds the sum of
// their solo prices (soloPrice), the last admitted rider moves to solo
// service. Each such move adds one line to notes for the schedule log.
// rejected lists every candidate not admitted, in candidate order.
func admitShared(cfg Config, res join.Resources, queries []Query, cand []int) (admitted, rejected []int, notes []string) {
	dFree := res.DiskBlocks - cfg.CacheBlocks
	var rTotal int64
	for _, qi := range cand {
		q := queries[qi]
		k := int64(len(admitted) + 1)
		share := res
		share.MemoryBlocks, share.DiskBlocks = res.MemoryBlocks/k, q.R.Region.N
		fits := join.Fits(join.DTNB{}, q.R.Region.N, q.S.Region.N, share, join.AnyTapes) == nil
		_, msLeft := cost.SharedSplit(res.MemoryBlocks, k, res.IOChunk)
		if fits && rTotal+q.R.Region.N <= dFree && msLeft >= 1 {
			admitted = append(admitted, qi)
			rTotal += q.R.Region.N
		}
	}
	for len(admitted) >= 2 {
		shared, solo := priceShared(cfg, res, queries, admitted)
		if shared <= solo {
			break
		}
		last := admitted[len(admitted)-1]
		admitted = admitted[:len(admitted)-1]
		notes = append(notes, fmt.Sprintf("shared pass over S=%s priced %.0f s vs solo %.0f s: %s runs solo",
			queries[last].S.Name, shared, solo, queries[last].ID))
	}
	// admitted is a subsequence of cand: walk both.
	j := 0
	for _, qi := range cand {
		if j < len(admitted) && admitted[j] == qi {
			j++
			continue
		}
		rejected = append(rejected, qi)
	}
	return admitted, rejected, notes
}

// priceShared returns the model's price of one shared pass over the
// riders and the sum of their solo prices.
func priceShared(cfg Config, res join.Resources, queries []Query, riders []int) (shared, solo float64) {
	rBlocks := make([]int64, len(riders))
	for i, qi := range riders {
		rBlocks[i] = queries[qi].R.Region.N
		solo += soloPrice(cfg, res, queries[qi])
	}
	bigS := queries[riders[0]].S.Region.N
	p := cost.Params{SBlocks: bigS, MBlocks: res.MemoryBlocks, TapeRate: res.Tape.EffectiveRate(), DiskRate: res.DiskRate}
	est := cost.EstimateShared(p, rBlocks, res.IOChunk, cost.Requests{Disks: res.NumDisks, Positioning: res.DiskOverhead.Seconds()})
	return est.Seconds, solo
}

// soloPrice is the model's response time for q served alone by the
// method it would really run (soloMethod) on M and D - CacheBlocks.
// A method the model cannot price (SYM-H) or no feasible method at all
// prices +Inf, so such a rider never argues against sharing.
func soloPrice(cfg Config, res join.Resources, q Query) float64 {
	res.DiskBlocks -= cfg.CacheBlocks
	spec := join.Spec{R: q.R, S: q.S, FilterR: q.FilterR, FilterS: q.FilterS}
	m, _, err := soloMethod(q, spec, res)
	if err != nil {
		return math.Inf(1)
	}
	return join.Rank([]join.Method{m}, q.R.Region.N, q.S.Region.N, res, join.AnyTapes)[0].Est.Seconds
}
