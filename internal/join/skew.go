package join

import (
	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/sim"
)

// layout describes how a relation is routed into partitions on disk:
// the partition count, per-partition write buffer, input buffer and
// the routing function. The zero-skew layout of a uniform Plan routes
// by the primary hash and is byte-for-byte the paper's behavior.
type layout struct {
	parts    int
	writeBuf int64
	inBuf    int64
	// sp, when non-nil, routes keys through the skew plan's refined
	// partition map instead of the uniform hash.
	sp *hashutil.SkewPlan
}

func layoutOf(plan hashutil.Plan) layout {
	return layout{parts: plan.B, writeBuf: plan.WriteBuf, inBuf: plan.InBuf}
}

// probeLayout sizes the probe-side (S) partition layout for a plan and
// its optional skew refinement: every final partition needs a write
// buffer next to the input buffer, so more partitions mean narrower
// buffers, never more memory.
func probeLayout(plan hashutil.Plan, sp *hashutil.SkewPlan, m int64) layout {
	if sp.Trivial() {
		return layoutOf(plan)
	}
	lay := layout{parts: sp.NParts, sp: sp}
	lay.inBuf = m / 10
	if lay.inBuf < 1 {
		lay.inBuf = 1
	}
	lay.writeBuf = (m - lay.inBuf) / int64(lay.parts)
	if lay.writeBuf < 1 {
		lay.writeBuf = 1
		if lay.inBuf = m - int64(lay.parts); lay.inBuf < 1 {
			lay.inBuf = 1
		}
	}
	return lay
}

// route maps a key to its final partition.
func (l layout) route(key uint64) int {
	if l.sp != nil {
		return l.sp.Partition(key)
	}
	return hashutil.Bucket(key, l.parts)
}

// newSketch returns a frequency sketch when skew-aware partitioning is
// on, nil otherwise.
func (e *env) newSketch() *hashutil.FreqSketch {
	if !e.res.SkewAware {
		return nil
	}
	return hashutil.NewFreqSketch(hashutil.DefaultSketchK)
}

// refine builds the skew plan for plan's primary buckets from their
// census (tuples per bucket) and the key sketch, against the single-load
// budget: whatever memory remains next to the join phase's streaming
// buffer. It records the plan's stats and returns it, or nil when the
// uniform plan needs no repair.
func (e *env) refine(plan hashutil.Plan, census []int64, sk *hashutil.FreqSketch, perBlk int) *hashutil.SkewPlan {
	m := e.res.MemoryBlocks
	sizes := make([]int64, len(census))
	for i, c := range census {
		sizes[i] = (c + int64(perBlk) - 1) / int64(perBlk)
	}
	sp := hashutil.BuildSkewPlan(plan, sizes, sk, perBlk, m-scanBufFor(plan, m), int(m-1))
	if sp.Trivial() {
		return nil
	}
	e.stats.HeavyHitters = len(sp.Heavy)
	e.stats.SkewPartitions = sp.NParts
	return sp
}

// partFilter returns an appendFileToTape transform that keeps only the
// tuples routed to part, repacking survivors at the relation's density.
// The builder carries across batches, so only the partition's final
// block is partial — the spooled region is as dense as a directly
// partitioned one.
func partFilter(sp *hashutil.SkewPlan, part, tuplesPerBlock int, tag byte) func(blks []block.Block, eof bool) ([]block.Block, error) {
	bld := block.NewBuilder(tag)
	return func(blks []block.Block, eof bool) ([]block.Block, error) {
		var out []block.Block
		err := forEachTuple(blks, func(t block.Tuple) {
			if sp.Partition(t.Key) != part {
				return
			}
			bld.Append(t)
			if bld.Len() >= tuplesPerBlock {
				out = append(out, bld.Finish())
			}
		})
		if err != nil {
			return nil, err
		}
		if eof && bld.Len() > 0 {
			out = append(out, bld.Finish())
		}
		return out, nil
	}
}

// repairRSkew refines the uniform R partition pass that produced files
// and, when any bucket overflows the single-load budget, rewrites each
// overflowing bucket file into its refined partitions on disk: a
// partition pass over the file with one-block write buffers. Returns the
// final partition files (indexed by partition) and the plan; a trivial
// refinement returns the input files and a nil plan, leaving the uniform
// path untouched. The rewrite is deterministic, so a recovery replay
// lands on the same layout.
func (e *env) repairRSkew(p *sim.Proc, plan hashutil.Plan, files []device.File, pass partPass) ([]device.File, *hashutil.SkewPlan, error) {
	sp := e.refine(plan, pass.census, pass.sketch, pass.perBlk)
	if sp == nil {
		return files, nil, nil
	}
	span := e.span(p, "skew-repair",
		obs.AInt("heavy", int64(len(sp.Heavy))), obs.AInt("parts", int64(sp.NParts)))
	defer span.Close(p)

	// repairRSkew owns files from here: on error everything still
	// allocated — unsplit originals and finished splits alike — is
	// freed, and the caller must not free the input slice again.
	out := make([]device.File, sp.NParts)
	copy(out, files)
	for b := 0; b < plan.B; b++ {
		parts := sp.PartsOf(b)
		if len(parts) == 1 {
			continue
		}
		// One block per target partition plus the read chunk: bounded by
		// NParts <= M-1 at plan time.
		chunk := max(1, min(e.res.IOChunk, e.res.MemoryBlocks-int64(len(parts))))
		split, err := e.partition(p, partPass{
			src: diskBucket{files[b]}, lay: layout{parts: sp.NParts, writeBuf: 1, inBuf: chunk, sp: sp},
			parts: parts, prefix: pass.prefix, perBlk: pass.perBlk, tag: pass.tag,
		})
		if err != nil {
			freeAll(out)
			return nil, nil, err
		}
		// The split replaces every partition of b, index b included.
		files[b].Free()
		for _, part := range parts {
			out[part] = split[part]
		}
	}
	return out, sp, nil
}
