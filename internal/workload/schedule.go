package workload

import (
	"cmp"
	"slices"

	"repro/internal/join"
)

// step is one scheduler action: a single query, or a shared S-pass
// over several.
type step struct {
	members []*pendingQ
	shared  bool
	// notes are admission's priced rejections, logged when the step
	// starts.
	notes []string
}

// pick is the one definition of the scheduling policies. It returns
// the next unit of steps for the queued queries: queue is non-empty and
// in arrival order, and last is the last query of the unit served
// before (nil before the first). A batch queues every query before the
// first pick, and picking until the queue is empty then serves:
//
//   - fifo: the queries in arrival order, one per unit;
//   - mount-aware: the queries grouped by S cartridge in order of first
//     arrival, and within each S group by R cartridge likewise;
//   - shared-scan: that order grouped again by S relation. Each group
//     serves its StopAfter queries alone first (a shared pass streams
//     the whole S scan to every rider), then offers the rest to
//     admitShared MaxShared at a time; a chunk's shared pass and its
//     rejected singles are one unit, so admission runs once per chunk.
//
// Online, a later arrival joins its groups while they are still queued
// (enqueueLocked), and the last unit's cartridges go first: its S
// cartridge under mount-aware and shared-scan, and its R cartridge under
// mount-aware, so the next unit keeps a mounted cartridge that a queued
// query needs. In a batch these preferences agree with the order above.
func pick(cfg Config, res join.Resources, queue []*pendingQ, last *Query) []step {
	switch cfg.Policy {
	case FIFO:
		return []step{{members: []*pendingQ{queue[0]}}}
	case MountAware:
		return []step{{members: mountOrder(queue, last, true)[:1]}}
	}
	order := mountOrder(queue, last, false)
	s := order[0].q.S
	if last != nil && slices.ContainsFunc(queue, func(pq *pendingQ) bool { return pq.q.S == last.S }) {
		s = last.S
	}
	var group []*pendingQ
	for _, pq := range order {
		if pq.q.S != s {
			continue
		}
		if pq.q.StopAfter > 0 {
			return []step{{members: []*pendingQ{pq}}}
		}
		group = append(group, pq)
	}
	cand := group[:min(len(group), cfg.MaxShared)]
	qs := make([]Query, len(cand))
	for i, pq := range cand {
		qs[i] = pq.q.Query
	}
	admitted, rejected, notes := admitShared(cfg, res, qs, indices(len(cand)))
	var unit []step
	if len(admitted) >= 2 {
		unit = append(unit, step{members: membersAt(cand, admitted), shared: true})
	} else {
		rejected = append(admitted, rejected...)
	}
	for _, i := range rejected {
		unit = append(unit, step{members: []*pendingQ{cand[i]}})
	}
	unit[0].notes = notes
	return unit
}

// mountOrder returns the queue in mount-aware order: queries on the
// last query's S cartridge first, and among those (when keepR is set)
// the ones on its R cartridge; then by S-cartridge group, R-cartridge
// group and arrival. A group's rank is the arrival of its oldest member
// still queued when the query arrived (enqueueLocked), so a group
// keeps its place while it is being served.
func mountOrder(queue []*pendingQ, last *Query, keepR bool) []*pendingQ {
	anchor := func(pq *pendingQ) (onS, onR int) {
		if last == nil || pq.q.S.Media != last.S.Media {
			return 1, 1
		}
		if keepR && pq.q.R.Media == last.R.Media {
			return 0, 0
		}
		return 0, 1
	}
	out := slices.Clone(queue)
	slices.SortStableFunc(out, func(a, b *pendingQ) int {
		aS, aR := anchor(a)
		bS, bR := anchor(b)
		return cmp.Or(cmp.Compare(aS, bS), cmp.Compare(aR, bR),
			cmp.Compare(a.sRank, b.sRank), cmp.Compare(a.rRank, b.rRank), cmp.Compare(a.seq, b.seq))
	})
	return out
}

func membersAt(cand []*pendingQ, at []int) []*pendingQ {
	out := make([]*pendingQ, len(at))
	for i, j := range at {
		out[i] = cand[j]
	}
	return out
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
