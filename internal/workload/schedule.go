package workload

import (
	"repro/internal/device"
	"repro/internal/join"
	"repro/internal/relation"
)

// step is one scheduler action: a single query, or a shared S-pass
// over several.
type step struct {
	indices []int
	shared  bool
	// notes are admission's priced rejections, logged when the step
	// starts.
	notes []string
}

// plan turns a batch into an ordered step list under the policy. All
// ordering is stable with respect to submission order, so plans — and
// therefore whole runs — are deterministic.
func plan(cfg Config, res join.Resources, queries []Query) []step {
	switch cfg.Policy {
	case MountAware:
		return singles(mountAwareOrder(queries))
	case SharedScan:
		return sharedPlan(cfg, res, queries)
	default:
		order := make([]int, len(queries))
		for i := range order {
			order[i] = i
		}
		return singles(order)
	}
}

func singles(order []int) []step {
	steps := make([]step, len(order))
	for i, qi := range order {
		steps[i] = step{indices: []int{qi}}
	}
	return steps
}

// mountAwareOrder groups queries by S cartridge in order of first
// appearance, and within each S group by R cartridge likewise. With
// two drives the S mount is the expensive one to churn (S is the big
// relation, re-reading it dominates), so S grouping is the outer key.
func mountAwareOrder(queries []Query) []int {
	var order []int
	bySMedia := groupBy(indices(len(queries)), func(qi int) device.Medium { return queries[qi].S.Media })
	for _, sGroup := range bySMedia {
		byRMedia := groupBy(sGroup, func(qi int) device.Medium { return queries[qi].R.Media })
		for _, rGroup := range byRMedia {
			order = append(order, rGroup...)
		}
	}
	return order
}

// sharedPlan is the mount-aware order with same-S-relation runs fused
// into shared passes where admission control allows.
func sharedPlan(cfg Config, res join.Resources, queries []Query) []step {
	order := mountAwareOrder(queries)
	var steps []step
	// Fuse runs of queries over the same S *relation* (not merely the
	// same cartridge: a shared pass streams one region once).
	byS := groupBy(order, func(qi int) *relation.Relation { return queries[qi].S })
	for _, full := range byS {
		// StopAfter queries never ride a shared pass: the pass streams the
		// whole S scan to every rider, so a prefix query would either see
		// too much or force the pass to stop early for everyone.
		group := full[:0:0]
		for _, qi := range full {
			if queries[qi].StopAfter > 0 {
				steps = append(steps, step{indices: []int{qi}})
				continue
			}
			group = append(group, qi)
		}
		for len(group) > 0 {
			take := len(group)
			if take > cfg.MaxShared {
				take = cfg.MaxShared
			}
			cand := group[:take]
			group = group[take:]
			admitted, rejected, notes := admitShared(cfg, res, queries, cand)
			first := len(steps)
			if len(admitted) >= 2 {
				steps = append(steps, step{indices: admitted, shared: true})
			} else {
				rejected = append(admitted, rejected...)
			}
			for _, qi := range rejected {
				steps = append(steps, step{indices: []int{qi}})
			}
			steps[first].notes = notes
		}
	}
	return steps
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// groupBy partitions items into groups keyed by key(item), preserving
// first-appearance order of groups and submission order within each.
func groupBy[K comparable](items []int, key func(int) K) [][]int {
	var order []K
	groups := make(map[K][]int)
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
