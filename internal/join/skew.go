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

// repairRSkew splits each of R's uniform bucket files that R's refined
// map divides into its partitions on disk: a partition pass over the
// file with one-block write buffers. Returns the final partition files,
// indexed by partition. The rewrite is deterministic, so a recovery
// replay lands on the same layout.
func (x *executor) repairRSkew(p *sim.Proc, files []device.File) ([]device.File, error) {
	sp := x.skp
	span := x.span(p, "skew-repair",
		obs.AInt("heavy", int64(len(sp.Heavy))), obs.AInt("parts", int64(sp.NParts)))
	defer span.Close(p)

	// repairRSkew owns files from here: on error everything still
	// allocated — unsplit originals and finished splits alike — is
	// freed, and the caller must not free the input slice again.
	out := make([]device.File, sp.NParts)
	copy(out, files)
	for b := 0; b < x.bp.B; b++ {
		parts := sp.PartsOf(b)
		if len(parts) == 1 {
			continue
		}
		// One block per target partition plus the read chunk: bounded by
		// NParts <= M-1 at plan time.
		chunk := max(1, min(x.res.IOChunk, x.res.MemoryBlocks-int64(len(parts))))
		split, err := x.partition(p, partPass{
			src: diskBucket{files[b]}, lay: layout{parts: sp.NParts, writeBuf: 1, inBuf: chunk, sp: sp},
			parts: parts, prefix: "rb", perBlk: x.spec.R.TuplesPerBlock, tag: x.spec.R.Tag,
		})
		if err != nil {
			freeAll(out)
			return nil, err
		}
		// The split replaces every partition of b, index b included.
		files[b].Free()
		for _, part := range parts {
			out[part] = split[part]
		}
	}
	return out, nil
}
