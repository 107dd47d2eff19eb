package join

import (
	"errors"
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/sim"
)

// estBucketBlocks estimates one bucket's on-disk size for a relation
// of n blocks over b buckets, with slack for the partial trailing
// block and hash-value variance.
func estBucketBlocks(n int64, b int) int64 {
	est := (n + int64(b) - 1) / int64(b)
	// Hash-variance slack: relative variance grows as buckets shrink,
	// so small buckets get proportionally more headroom.
	return est + est/8 + 2
}

// assemblableBucket returns the largest bucket (in blocks) whose
// estimated on-disk size fits in d blocks of assembly area — the
// inverse of estBucketBlocks' slack.
func assemblableBucket(d int64) int64 {
	// Buckets are bounded to half the assembly area: the window keeps
	// one estimated bucket of headroom so that hash-variance outliers
	// never overflow the disk (see hashRelationToTape).
	v := (d/2 - 2) * 8 / 9
	if v < 1 {
		v = 1
	}
	return v
}

// planTapeTape computes CTT-GH's bucket plan: buckets are bounded both
// by memory (join phase) and by the disk assembly area (Step I).
func planTapeTape(r, _ int64, res Resources) (hashutil.Plan, error) {
	return needMemory(hashutil.PlanBucketsBounded(r, res.MemoryBlocks, assemblableBucket(res.DiskBlocks)))
}

// planTT plans TT-GH's buckets: the same B partitions both relations,
// so a bucket of either side must fit the disk assembly area. S is the
// larger side, so it sets the bound: bucket_R <= R/S * assemblable(D).
func planTT(r, s int64, res Resources) (hashutil.Plan, error) {
	bound := assemblableBucket(res.DiskBlocks)
	// Scale the R-side bucket bound so the corresponding S bucket
	// (about |S|/|R| times larger) also fits.
	rBound := bound * r / s
	if rBound < 1 {
		rBound = 1
	}
	return needMemory(hashutil.PlanBucketsBounded(r, res.MemoryBlocks, rBound))
}

// appendFileToTape streams a disk file to the drive's end of data and
// returns the contiguous region written. xform, when non-nil, rewrites
// each batch of blocks before the tape write (with eof set on the last
// batch so a stateful transform can flush) — the skew spool uses it to
// project one partition out of a bucket file. When pipelined, disk
// reads overlap tape writes on the pipeline skeleton, the reader one
// batch ahead and stopping after a failed write (the concurrent
// methods); otherwise the two alternate in one process (the sequential
// TT-GH).
func appendFileToTape(e *env, p *sim.Proc, f device.File, dst device.Drive, pipelined bool,
	xform func(blks []block.Block, eof bool) ([]block.Block, error)) (device.Region, error) {
	sp := e.span(p, "spool-bucket", obs.AInt("blocks", f.Len()))
	defer sp.Close(p)
	var region device.Region
	write := func(wp *sim.Proc, blks []block.Block) error {
		reg, err := dst.Append(wp, blks)
		if err != nil {
			return err
		}
		if region.N == 0 {
			region = reg
		} else {
			if reg.Start != region.End() {
				return fmt.Errorf("join: bucket append not contiguous at %d", reg.Start)
			}
			region.N += reg.N
		}
		return nil
	}

	// read streams the file through xform into emit, skipping batches
	// the transform empties.
	read := func(rp *sim.Proc, emit func([]block.Block) error) error {
		return e.scan(rp, diskBucket{f}, e.res.IOChunk, func(blks []block.Block, last bool) error {
			if xform != nil {
				var err error
				if blks, err = xform(blks, last); err != nil {
					return err
				}
			}
			if len(blks) == 0 {
				return nil
			}
			return emit(blks)
		})
	}
	if !pipelined {
		if err := read(p, func(blks []block.Block) error { return write(p, blks) }); err != nil {
			return device.Region{}, err
		}
		return region, nil
	}

	err := e.pipeline(p, "append-pipe", "bucket-reader",
		func(rp *sim.Proc, q *sim.Queue[chunk], stop *bool) {
			err := read(rp, func(blks []block.Block) error {
				q.Send(rp, chunk{blks: blks})
				if *stop {
					return errSpoolStopped
				}
				return nil
			})
			if err != nil {
				q.Send(rp, chunk{err: err})
			}
		},
		func(c chunk) error { return write(p, c.blks) },
		func(chunk) {}, nil)
	if err != nil {
		return device.Region{}, err
	}
	return region, nil
}

// errSpoolStopped ends a pipelined spool's disk reads once a tape write
// has failed; the pipeline drops it, reporting the write's error.
var errSpoolStopped = errors.New("join: spool stopped")

// hashRelationToTape implements Step I of the tape–tape methods: the
// source relation is hash-partitioned into plan.B buckets, a disk-load
// of buckets at a time. Each scan reads the source end to end, keeps
// the tuples of the current bucket window, assembles those buckets in
// full on disk, and appends them to dst's scratch space. Returns the
// per-partition tape regions, stored contiguously in spool order.
//
// skew, when non-nil, is the in/out skew-refinement handle. On the
// build-side pass (sketch true, *skew nil) the first full scan
// sketches key frequencies and counts exact bucket sizes, then builds
// a SkewPlan before anything is spooled; with sketch false the
// handle's plan — R's, possibly nil — is applied as-is, so TT-GH's S
// pass lands on exactly R's partition map and never invents its own
// (an oversized S bucket is harmless: only R partitions must fit
// memory). A refined bucket is still assembled whole on disk, but
// spooled one partition at a time: each sub-partition or isolated key
// becomes its own tape region, read back by the join phase as an
// ordinary (now memory-sized) bucket. Sketch, counts and plan are
// deterministic, so a recovery replay lands on the same tape layout.
func hashRelationToTape(e *env, p *sim.Proc, src device.Drive, region device.Region,
	tuplesPerBlock int, tag byte, plan hashutil.Plan, dst device.Drive,
	pipelined bool, keep keepFn, scans *int, skew **hashutil.SkewPlan, sketch bool) ([]device.Region, error) {

	b := plan.B
	est := estBucketBlocks(region.N, b)

	cur := func() *hashutil.SkewPlan {
		if skew == nil {
			return nil
		}
		return *skew
	}
	partsOf := func(bkt int) []int {
		if sp := cur(); sp != nil {
			return sp.PartsOf(bkt)
		}
		return []int{bkt}
	}
	nparts := b
	if sp := cur(); sp != nil {
		nparts = sp.NParts
	}
	regions := make([]device.Region, nparts)
	// Sketch only while the plan is still open: the build-side pass.
	sketched := !sketch || skew == nil || *skew != nil
	done := 0
	for done < b {
		lo := done
		hi := lo // set inside the unit; a restart may shrink the window

		// One window is one restartable unit. Buckets already appended
		// to tape by an earlier attempt keep their regions; a restart
		// re-scans the source for the missing buckets only. A partially
		// appended bucket leaves garbage at the scratch EOD, which is
		// simply abandoned — tape appends are monotonic.
		err := e.runUnit(p, fmt.Sprintf("hash-window@%d", lo), func(up *sim.Proc) error {
			sp := e.span(up, "hash-window", obs.AInt("lo", int64(lo)))
			defer sp.Close(up)
			// Window sizing happens per attempt against the surviving
			// array, so a disk lost mid-run shrinks subsequent windows
			// (costing extra scans) instead of overflowing the disks.
			g := windowBuckets(e.effectiveD(), est)
			if g < 1 {
				return fmt.Errorf("%w: D=%d cannot assemble one %d-block bucket with headroom",
					ErrNeedDisk, e.effectiveD(), est)
			}
			if g > int64(b-lo) {
				g = int64(b - lo)
			}
			hi = lo + int(g)
			// A bucket is outstanding while any of its partitions lacks a
			// tape region (all of them, before a skew plan); only those
			// are partitioned again.
			var parts []int
			for bkt := lo; bkt < hi; bkt++ {
				for _, part := range partsOf(bkt) {
					if regions[part].N == 0 {
						parts = append(parts, bkt)
						break
					}
				}
			}
			if len(parts) == 0 {
				return nil
			}
			var sk *hashutil.FreqSketch
			var census []int64
			if !sketched {
				if sk = e.newSketch(); sk == nil {
					sketched = true
				} else {
					census = make([]int64, b)
				}
			}
			files, err := e.partition(up, partPass{
				src: tapeBucket{drive: src, region: region}, lay: layoutOf(plan), parts: parts, prefix: "hb",
				perBlk: tuplesPerBlock, tag: tag, keep: keep, sketch: sk, census: census,
			})
			if err != nil {
				return err
			}
			defer freeAll(files)
			*scans++

			// The full scan just completed the sketch and the exact
			// bucket census; refine the plan before anything spools so
			// every region lands at its final partition index.
			if sk != nil {
				sketched = true
				if nsp := e.refine(plan, census, sk, tuplesPerBlock); nsp != nil {
					*skew = nsp
					regions = append(regions, make([]device.Region, nsp.NParts-len(regions))...)
				}
			}

			// Append the completed buckets to the destination tape in
			// bucket order, refined buckets one partition at a time.
			for _, bkt := range parts {
				f := files[bkt]
				if refined := partsOf(bkt); len(refined) == 1 {
					reg, err := appendFileToTape(e, up, f, dst, pipelined, nil)
					if err != nil {
						return err
					}
					regions[bkt] = reg
				} else {
					for _, part := range refined {
						if regions[part].N != 0 {
							continue // spooled by an attempt this restart superseded
						}
						reg, err := appendFileToTape(e, up, f, dst, pipelined,
							partFilter(cur(), part, tuplesPerBlock, tag))
						if err != nil {
							return err
						}
						regions[part] = reg
					}
				}
				f.Free()
				files[bkt] = nil
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		done = hi
	}
	return regions, nil
}

// windowBuckets sizes a Step I assembly window for d blocks of disk:
// per-bucket estimates already carry variance slack, and over a wide
// window those margins pool, so large windows need no extra headroom.
// Narrow windows (1-2 buckets) cannot pool, so they reserve one whole
// estimated bucket against a hash-variance outlier.
func windowBuckets(d, est int64) int64 {
	g := d / est
	if g <= 2 {
		g = (d - est) / est
	}
	return g
}
