package join

import (
	"repro/internal/block"
	"repro/internal/sim"
)

// Sink receives join output. The paper's default cost model pipelines
// output to a downstream consumer at no I/O cost (Section 3.2); to
// model locally stored output, reduce Resources.DiskRate as the paper
// prescribes.
//
// With recovery on, a run that is not streaming holds its output in a
// staging log and delivers it when the run has succeeded, so a failed
// attempt never reaches the sink. A sink that implements Rewinder is
// instead fed live and rewound on failure; either way a failed run
// leaves the sink as it found it.
type Sink interface {
	// Emit delivers one matching pair (r ⋈ s). r, s and their payloads
	// are valid only for the duration of the call — they may alias a
	// staging-log chunk that is overwritten once Emit returns — so a
	// sink copies whatever payload bytes it keeps.
	Emit(p *sim.Proc, r, s block.Tuple)
	// Count returns the number of pairs emitted so far.
	Count() int64
}

// CountSink counts matches and keeps an order-independent checksum of
// the matched keys so runs of different methods can be compared
// exactly.
type CountSink struct {
	Matches int64
	KeySum  uint64 // sum of matched keys mod 2^64; order-independent
	// PairSum is an order-independent digest of the full output
	// payload: the sum mod 2^64 of an FNV-1a hash over each pair's
	// keys and payload bytes. Equal PairSums mean the runs emitted the
	// same multiset of pairs, byte for byte — the end-to-end integrity
	// oracle across methods, backends and fault schedules.
	PairSum uint64
}

// Emit implements Sink.
func (c *CountSink) Emit(_ *sim.Proc, r, s block.Tuple) {
	c.Matches++
	c.KeySum += r.Key
	c.PairSum += pairHash(r, s)
}

// pairHash digests one output pair: hash/fnv's 64-bit FNV-1a over r's
// key (little endian), r's payload, s's key, s's payload, written out
// as a loop to spare five interface calls per pair.
func pairHash(r, s block.Tuple) uint64 {
	return fnvTuple(fnvTuple(fnvOffset64, r), s)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvTuple(h uint64, t block.Tuple) uint64 {
	for k, i := t.Key, 0; i < 8; k, i = k>>8, i+1 {
		h = (h ^ (k & 0xff)) * fnvPrime64
	}
	for _, b := range t.Payload {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// Count implements Sink.
func (c *CountSink) Count() int64 { return c.Matches }

// Hash implements Hasher.
func (c *CountSink) Hash() uint64 { return c.PairSum }

// Mark implements Rewinder: the mark is a copy of the sink.
func (c *CountSink) Mark() any { return *c }

// Rewind implements Rewinder.
func (c *CountSink) Rewind(m any) { *c = m.(CountSink) }

// Hasher is implemented by sinks that maintain an order-independent
// digest of the emitted pairs (CountSink.PairSum). Schedulers use it to
// surface a per-query OutputHash without knowing the sink's concrete
// type, so online-, batch- and solo-served runs of the same query can
// be compared byte for byte.
type Hasher interface {
	Hash() uint64
}

// Rewinder is implemented by sinks whose whole state can be saved and
// restored cheaply. A whole-run-staged run (recovery on, not
// streaming) whose sink is a Rewinder delivers pairs to it as they are
// emitted instead of copying them into the staging log, and rewinds it
// to a mark wherever it would have rewound the log: a failed unit, a
// drive-loss re-plan and a failed run. Stats.FirstTuple is still
// stamped when the run commits.
//
// A type that embeds a Rewinder (such as CountSink) and adds state of
// its own must override Mark and Rewind to cover that state too: the
// promoted methods restore only the embedded part, and a restarted
// unit would then leave the added state with a failed attempt's pairs.
type Rewinder interface {
	// Mark returns the sink's current state.
	Mark() any
	// Rewind restores the state a Mark returned, discarding every pair
	// emitted since.
	Rewind(mark any)
}

// StreamSink is a Sink with a backpressure/stop signal: once Satisfied
// reports true, the join stops reading input, unwinds its pipelines
// cleanly, and returns with Stats.Stopped set. Satisfied is polled at
// emission points and before device reads, so a few extra pairs may be
// emitted between the flip and the stop — consumers that need an exact
// cut-off should use ExecOptions.StopAfter, which counts emissions
// inside the join itself. Note that while a recoverable unit's output
// is staged (see Recovery), pairs reach the sink only at unit commit,
// so a Satisfied signal derived from delivered pairs flips at unit
// granularity. A StreamSink puts the run in streaming mode, so the
// join never treats it as a Rewinder: its units' output goes through
// the staging log, and nothing marks or rewinds the sink.
type StreamSink interface {
	Sink
	// Satisfied reports that the consumer needs no more output.
	Satisfied() bool
}

// StopSink wraps a sink with an emission cap, turning it into a
// StreamSink that is satisfied after N pairs: the canonical way to run
// a top-k / LIMIT-n query against the streaming methods. A
// non-positive N never satisfies.
type StopSink struct {
	Inner Sink
	N     int64
}

// Emit implements Sink.
func (s *StopSink) Emit(p *sim.Proc, r, t block.Tuple) { s.Inner.Emit(p, r, t) }

// Count implements Sink.
func (s *StopSink) Count() int64 { return s.Inner.Count() }

// Satisfied implements StreamSink.
func (s *StopSink) Satisfied() bool { return s.N > 0 && s.Inner.Count() >= s.N }

// Hash implements Hasher when the inner sink does (0 otherwise).
func (s *StopSink) Hash() uint64 {
	if h, ok := s.Inner.(Hasher); ok {
		return h.Hash()
	}
	return 0
}

// GroupCountSink is a pipelined aggregate consumer (the Section 3.2
// case where "the join operator pipelines its output to an aggregate
// operator"): it folds each match into a per-key count instead of
// materializing pairs, so output costs nothing beyond the fold.
type GroupCountSink struct {
	Counts map[uint64]int64
	total  int64
}

// Emit implements Sink.
func (g *GroupCountSink) Emit(_ *sim.Proc, r, _ block.Tuple) {
	if g.Counts == nil {
		g.Counts = make(map[uint64]int64)
	}
	g.Counts[r.Key]++
	g.total++
}

// Count implements Sink.
func (g *GroupCountSink) Count() int64 { return g.total }

// PairSink records every output pair's keys, for small correctness
// tests.
type PairSink struct {
	Pairs [][2]uint64
}

// Emit implements Sink.
func (s *PairSink) Emit(_ *sim.Proc, r, t block.Tuple) {
	s.Pairs = append(s.Pairs, [2]uint64{r.Key, t.Key})
}

// Count implements Sink.
func (s *PairSink) Count() int64 { return int64(len(s.Pairs)) }
