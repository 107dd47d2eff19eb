// Package buffer implements the double-buffering disciplines of
// Section 4 of the paper for the disk area that stages chunks of S.
//
// The interleaved discipline shares one physical buffer between the
// two logical buffers of consecutive iterations: space released by the
// consumer of iteration i is immediately reusable by the producer of
// iteration i+1, so iteration size equals the full buffer and
// utilization stays near 100% (the paper's Figure 4).
//
// The split discipline is the naive alternative the paper argues
// against — two fixed halves — kept here as an ablation baseline: each
// chunk is half as large, doubling the number of iterations.
package buffer

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Sample is one point of the Figure-4 utilization trace: how many
// blocks each iteration parity holds at virtual time T.
type Sample struct {
	T    sim.Time
	Even int64 // blocks held by even-numbered iterations
	Odd  int64 // blocks held by odd-numbered iterations
}

// Total returns the combined usage.
func (s Sample) Total() int64 { return s.Even + s.Odd }

// DoubleBuffer is the space-management discipline for a
// producer/consumer pair working on consecutive iterations of a
// tertiary join.
type DoubleBuffer interface {
	// Acquire blocks until n blocks are available to iteration iter
	// and charges them to it.
	Acquire(p *sim.Proc, iter int64, n int64)
	// Release returns n blocks charged to iteration iter.
	Release(p *sim.Proc, iter int64, n int64)
	// ChunkCapacity is the largest chunk a single iteration may hold:
	// the full buffer for the interleaved discipline, half for split.
	ChunkCapacity() int64
	// Trace returns the utilization samples recorded so far.
	Trace() []Sample
	// SetMetrics registers an occupancy gauge and histogram in reg
	// (nil detaches).
	SetMetrics(reg *obs.Registry)
}

// bufferMetrics are a buffer's series exported to an obs.Registry; the
// nil-safe handles let record() call unconditionally.
type bufferMetrics struct {
	used      *obs.Gauge
	occupancy *obs.Histogram
}

func newBufferMetrics(reg *obs.Registry, name string) bufferMetrics {
	if reg == nil {
		return bufferMetrics{}
	}
	l := obs.A("buffer", name)
	return bufferMetrics{
		used: reg.Gauge("buffer_used_blocks", "Blocks currently held in the staging buffer.", l),
		occupancy: reg.Histogram("buffer_occupancy_ratio",
			"Buffer occupancy sampled at each acquire/release.", obs.OccupancyBuckets, l),
	}
}

func (m bufferMetrics) sample(total, capacity int64) {
	m.used.Set(float64(total))
	if capacity > 0 {
		m.occupancy.Observe(float64(total) / float64(capacity))
	}
}

// Interleaved is the shared-space discipline of Section 4.
type Interleaved struct {
	name  string
	space *sim.Container
	used  [2]int64
	trace []Sample
	met   bufferMetrics
}

var _ DoubleBuffer = (*Interleaved)(nil)

// NewInterleaved returns an interleaved double buffer over capacity
// blocks of disk space.
func NewInterleaved(k *sim.Kernel, name string, capacity int64) *Interleaved {
	return &Interleaved{name: name, space: sim.NewContainer(k, name, capacity, capacity)}
}

// SetMetrics implements DoubleBuffer.
func (b *Interleaved) SetMetrics(reg *obs.Registry) { b.met = newBufferMetrics(reg, b.name) }

// Acquire implements DoubleBuffer.
func (b *Interleaved) Acquire(p *sim.Proc, iter int64, n int64) {
	b.space.Get(p, n)
	b.used[iter&1] += n
	b.record(p)
}

// Release implements DoubleBuffer.
func (b *Interleaved) Release(p *sim.Proc, iter int64, n int64) {
	par := iter & 1
	if b.used[par] < n {
		panic(fmt.Sprintf("buffer: iteration %d releases %d but holds %d", iter, n, b.used[par]))
	}
	b.used[par] -= n
	b.record(p)
	b.space.Put(p, n)
}

// ChunkCapacity implements DoubleBuffer: the full buffer.
func (b *Interleaved) ChunkCapacity() int64 { return b.space.Capacity() }

// Trace implements DoubleBuffer.
func (b *Interleaved) Trace() []Sample { return b.trace }

func (b *Interleaved) record(p *sim.Proc) {
	b.trace = append(b.trace, Sample{T: p.Now(), Even: b.used[0], Odd: b.used[1]})
	b.met.sample(b.used[0]+b.used[1], b.space.Capacity())
}

// Split is the naive two-halves discipline.
type Split struct {
	name   string
	halves [2]*sim.Container
	used   [2]int64
	trace  []Sample
	met    bufferMetrics
}

var _ DoubleBuffer = (*Split)(nil)

// NewSplit returns a split double buffer: two independent halves of
// capacity/2 blocks each.
func NewSplit(k *sim.Kernel, name string, capacity int64) *Split {
	half := capacity / 2
	return &Split{name: name, halves: [2]*sim.Container{
		sim.NewContainer(k, name+"-even", half, half),
		sim.NewContainer(k, name+"-odd", half, half),
	}}
}

// SetMetrics implements DoubleBuffer.
func (b *Split) SetMetrics(reg *obs.Registry) { b.met = newBufferMetrics(reg, b.name) }

// Acquire implements DoubleBuffer.
func (b *Split) Acquire(p *sim.Proc, iter int64, n int64) {
	par := iter & 1
	b.halves[par].Get(p, n)
	b.used[par] += n
	b.record(p)
}

// Release implements DoubleBuffer.
func (b *Split) Release(p *sim.Proc, iter int64, n int64) {
	par := iter & 1
	if b.used[par] < n {
		panic(fmt.Sprintf("buffer: iteration %d releases %d but holds %d", iter, n, b.used[par]))
	}
	b.used[par] -= n
	b.record(p)
	b.halves[par].Put(p, n)
}

// ChunkCapacity implements DoubleBuffer: half the space.
func (b *Split) ChunkCapacity() int64 { return b.halves[0].Capacity() }

// Trace implements DoubleBuffer.
func (b *Split) Trace() []Sample { return b.trace }

func (b *Split) record(p *sim.Proc) {
	b.trace = append(b.trace, Sample{T: p.Now(), Even: b.used[0], Odd: b.used[1]})
	b.met.sample(b.used[0]+b.used[1], 2*b.halves[0].Capacity())
}
