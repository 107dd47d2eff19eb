package join

import (
	"sort"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TTSM is Tape–Tape Sort-Merge Join: the classical alternative the
// paper's hashing methods displace (Knuth's tape sorting, cited in the
// paper's footnote 2). Both relations are sorted on tape — run
// formation in memory-sized loads, then k-way merge passes ping-ponging
// between fixed workspaces on the two cartridges — and joined with a
// streaming merge join. It is implemented as the comparison baseline:
// merge passes read runs interleaved, which costs a tape seek per
// buffer refill, and the whole of |R| + |S| must be rewritten log_k
// times. Even with overwrite-in-place workspaces (an idealization in
// its favor), it loses badly to the Grace Hash methods on real tape.
type TTSM struct{}

// Name implements Method.
func (TTSM) Name() string { return "Tape-Tape Sort-Merge Join (baseline)" }

// Symbol implements Method.
func (TTSM) Symbol() string { return "TT-SM" }

// smFanIn splits M blocks of memory into a merge fan-in k, a per-run
// input buffer of inBuf blocks and an outBuf-block output buffer.
// Larger input buffers amortize the tape seek each refill costs, at
// the price of a smaller fan-in (more passes) — the fundamental
// tension that makes tape sort-merge lose to hashing.
func smFanIn(m, ioChunk int64) (k int, inBuf, outBuf int64) {
	outBuf = ioChunk
	if outBuf > m/3 {
		outBuf = m / 3
	}
	if outBuf < 1 {
		outBuf = 1
	}
	avail := m - outBuf
	// Prefer input buffers near the request-size threshold, but keep
	// at least a 4-way merge when memory allows.
	inBuf = ioChunk
	for inBuf > 1 && avail/inBuf < 4 {
		inBuf /= 2
	}
	if inBuf < 1 {
		inBuf = 1
	}
	k = int(avail / inBuf)
	if k < 2 {
		k = 2
		inBuf = max(1, avail/2)
	}
	return k, inBuf, outBuf
}

// footprint implements Method: M >= 4 blocks (two merge inputs, an
// output block and slack), and both cartridges need workspace for
// sorting both relations: the away copy of each relation's runs plus
// ping-pong room — |R| + |S| per cartridge, with per-run partial-block
// slack.
func (TTSM) footprint(r, s int64, res Resources) (Need, error) {
	if err := memFloor(res, 4); err != nil {
		return Need{}, err
	}
	ws := r + s + r/res.MemoryBlocks + s/res.MemoryBlocks + 16
	return Need{M: 4, TR: ws, TS: ws}, nil
}

// smWorkspace is a fixed, reusable region of tape scratch. The first
// write appends (establishing the region); later passes overwrite in
// place.
type smWorkspace struct {
	drive device.Drive
	base  device.Addr
	used  int64 // blocks written by the current pass
	live  bool  // base established
}

// reset starts a new pass over the workspace.
func (w *smWorkspace) reset() { w.used = 0 }

// write appends blocks to the workspace's current pass.
func (w *smWorkspace) write(p *sim.Proc, blks []block.Block) (device.Region, error) {
	n := int64(len(blks))
	if !w.live {
		reg, err := w.drive.Append(p, blks)
		if err != nil {
			return device.Region{}, err
		}
		if w.used == 0 {
			w.base = reg.Start
			w.live = true
		}
		w.used += n
		return reg, nil
	}
	start := w.base + device.Addr(w.used)
	if err := w.drive.WriteAt(p, start, blks); err != nil {
		return device.Region{}, err
	}
	w.used += n
	return device.Region{Start: start, N: n}, nil
}

// tupleStream reads a sorted tape region sequentially, bufBlocks at a
// time. Reads go through the env's retrying device-read path; TT-SM
// has no checkpoints (a failed read aborts the sort), so retries are
// its only recovery.
type tupleStream struct {
	e      *env
	drive  device.Drive
	region device.Region
	buf    int64

	off  int64
	cur  []block.Tuple
	idx  int
	done bool
}

// next returns the stream's next tuple.
func (ts *tupleStream) next(p *sim.Proc) (block.Tuple, bool, error) {
	for ts.idx >= len(ts.cur) {
		if ts.off >= ts.region.N {
			ts.done = true
			return block.Tuple{}, false, nil
		}
		n := min(ts.buf, ts.region.N-ts.off)
		blks, err := ts.e.tapeRead(p, ts.drive, ts.region.Start+device.Addr(ts.off), n)
		if err != nil {
			return block.Tuple{}, false, err
		}
		ts.off += n
		ts.cur = ts.cur[:0]
		ts.idx = 0
		if err := forEachTuple(blks, func(t block.Tuple) { ts.cur = append(ts.cur, t) }); err != nil {
			return block.Tuple{}, false, err
		}
	}
	t := ts.cur[ts.idx]
	ts.idx++
	return t, true, nil
}

// blockPacker packs tuples into blocks and flushes them to a workspace
// in outBuf-block batches.
type blockPacker struct {
	ws      *smWorkspace
	builder *block.Builder
	pending []block.Block
	perBlk  int
	outBuf  int64

	start   device.Addr
	written int64

	// collect, when set, records the first key of every packed block —
	// the run's empirical CDF at block granularity, used by the
	// probe-narrowing merge join. Index i is block i of the run.
	collect bool
	fences  []uint64
}

func newBlockPacker(ws *smWorkspace, tag byte, perBlk int, outBuf int64) *blockPacker {
	return &blockPacker{ws: ws, builder: block.NewBuilder(tag), perBlk: perBlk, outBuf: outBuf}
}

func (bp *blockPacker) add(p *sim.Proc, t block.Tuple) error {
	if bp.collect && bp.builder.Len() == 0 {
		bp.fences = append(bp.fences, t.Key)
	}
	bp.builder.Append(t)
	if bp.builder.Len() < bp.perBlk {
		return nil
	}
	bp.pending = append(bp.pending, bp.builder.Finish())
	if int64(len(bp.pending)) >= bp.outBuf {
		return bp.flush(p)
	}
	return nil
}

func (bp *blockPacker) flush(p *sim.Proc) error {
	if len(bp.pending) == 0 {
		return nil
	}
	reg, err := bp.ws.write(p, bp.pending)
	if err != nil {
		return err
	}
	if bp.written == 0 {
		bp.start = reg.Start
	}
	bp.written += reg.N
	bp.pending = bp.pending[:0]
	return nil
}

// finish flushes the partial block and pending buffer and returns the
// run's region.
func (bp *blockPacker) finish(p *sim.Proc) (device.Region, error) {
	if bp.builder.Len() > 0 {
		bp.pending = append(bp.pending, bp.builder.Finish())
	}
	if err := bp.flush(p); err != nil {
		return device.Region{}, err
	}
	return device.Region{Start: bp.start, N: bp.written}, nil
}

// sortOnTape sorts one relation: run formation from the source region,
// then k-way merge passes ping-ponging between a workspace on each
// cartridge. Returns the drive and region of the final sorted copy,
// plus — when probe narrowing is on — the final run's block fence
// index (first key of each block), collected for free during the last
// write pass. scans counts full passes over the relation's data.
func sortOnTape(e *env, p *sim.Proc, src device.Drive, region device.Region,
	perBlk int, tag byte, wsHome, wsAway *smWorkspace, keep keepFn, scans *int) (device.Drive, device.Region, []uint64, error) {

	m := e.res.MemoryBlocks
	k, inBuf, outBuf := smFanIn(m, e.res.IOChunk)

	// Run formation: memory-loads of the source, sorted and written to
	// the away workspace.
	wsAway.reset()
	var runs []device.Region
	var fences [][]uint64
	sp := e.span(p, "sort-runs", obs.AInt("blocks", region.N))
	err := func() error {
		e.mem.acquire(m)
		defer e.mem.release(m)
		for off := int64(0); off < region.N; off += m {
			n := min(m, region.N-off)
			blks, err := e.tapeRead(p, src, region.Start+device.Addr(off), n)
			if err != nil {
				return err
			}
			var tuples []block.Tuple
			err = forEachTuple(blks, func(t block.Tuple) {
				if keep != nil && !keep(t) {
					return
				}
				tuples = append(tuples, t)
			})
			if err != nil {
				return err
			}
			sort.SliceStable(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key })
			bp := newBlockPacker(wsAway, tag, perBlk, outBuf)
			bp.collect = e.res.ProbeNarrow
			for _, t := range tuples {
				if err := bp.add(p, t); err != nil {
					return err
				}
			}
			run, err := bp.finish(p)
			if err != nil {
				return err
			}
			runs = append(runs, run)
			fences = append(fences, bp.fences)
		}
		return nil
	}()
	sp.Close(p)
	if err != nil {
		return nil, device.Region{}, nil, err
	}
	*scans++

	// Merge passes: read k runs interleaved from one workspace, write
	// merged runs to the other.
	cur, other := wsAway, wsHome
	for len(runs) > 1 {
		other.reset()
		var merged []device.Region
		var mergedFences [][]uint64
		sp := e.span(p, "merge-pass", obs.AInt("runs", int64(len(runs))))
		for lo := 0; lo < len(runs); lo += k {
			hi := lo + k
			if hi > len(runs) {
				hi = len(runs)
			}
			run, fence, err := mergeRuns(e, p, cur.drive, runs[lo:hi], other, perBlk, tag, inBuf, outBuf)
			if err != nil {
				sp.Close(p)
				return nil, device.Region{}, nil, err
			}
			merged = append(merged, run)
			mergedFences = append(mergedFences, fence)
		}
		sp.Close(p)
		runs, fences = merged, mergedFences
		cur, other = other, cur
		e.stats.Iterations++
		*scans++
	}
	return cur.drive, runs[0], fences[0], nil
}

// mergeRuns k-way merges sorted runs living on one drive into a single
// run on the destination workspace.
func mergeRuns(e *env, p *sim.Proc, src device.Drive, runs []device.Region,
	dst *smWorkspace, perBlk int, tag byte, inBuf, outBuf int64) (device.Region, []uint64, error) {

	e.mem.acquire(int64(len(runs))*inBuf + outBuf)
	defer e.mem.release(int64(len(runs))*inBuf + outBuf)

	streams := make([]*tupleStream, len(runs))
	heads := make([]block.Tuple, len(runs))
	alive := make([]bool, len(runs))
	for i, run := range runs {
		streams[i] = &tupleStream{e: e, drive: src, region: run, buf: inBuf}
		t, ok, err := streams[i].next(p)
		if err != nil {
			return device.Region{}, nil, err
		}
		heads[i], alive[i] = t, ok
	}
	bp := newBlockPacker(dst, tag, perBlk, outBuf)
	bp.collect = e.res.ProbeNarrow
	for {
		best := -1
		for i := range heads {
			if alive[i] && (best < 0 || heads[i].Key < heads[best].Key) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if err := bp.add(p, heads[best]); err != nil {
			return device.Region{}, nil, err
		}
		t, ok, err := streams[best].next(p)
		if err != nil {
			return device.Region{}, nil, err
		}
		heads[best], alive[best] = t, ok
	}
	reg, err := bp.finish(p)
	return reg, bp.fences, err
}

func (TTSM) run(e *env, p *sim.Proc) error {
	// Workspaces: each relation sorts between a workspace on its own
	// cartridge and one on the other. R sorts first; S's workspaces
	// are established after, so they never collide.
	wsRonS := &smWorkspace{drive: e.driveS} // R's away workspace
	wsRonR := &smWorkspace{drive: e.driveR} // R's home workspace
	rDrive, rSorted, rFences, err := sortOnTape(e, p, e.driveR, e.spec.R.Region,
		e.spec.R.TuplesPerBlock, e.spec.R.Tag, wsRonR, wsRonS, e.filterR(), &e.stats.RScans)
	if err != nil {
		return err
	}

	sScans := 0
	wsSonR := &smWorkspace{drive: e.driveR}
	wsSonS := &smWorkspace{drive: e.driveS}
	sDrive, sSorted, sFences, err := sortOnTape(e, p, e.driveS, e.spec.S.Region,
		e.spec.S.TuplesPerBlock, e.spec.S.Tag, wsSonS, wsSonR, e.filterS(), &sScans)
	if err != nil {
		return err
	}

	// The merge join streams both sorted copies concurrently, so they
	// must sit on different drives; relocate R's if they collided. The
	// copy preserves block boundaries, so the fence index stays valid.
	if rDrive == sDrive {
		dst := e.driveR
		if rDrive == e.driveR {
			dst = e.driveS
		}
		ws := &smWorkspace{drive: dst}
		moved, err := copySorted(e, p, rDrive, rSorted, ws)
		if err != nil {
			return err
		}
		rDrive, rSorted = dst, moved
		e.stats.RScans++
	}
	e.markStepI(p)

	return mergeJoin(e, p, rDrive, rSorted, rFences, sDrive, sSorted, sFences)
}

// copySorted moves a sorted region to a workspace on another drive.
func copySorted(e *env, p *sim.Proc, src device.Drive, region device.Region, dst *smWorkspace) (device.Region, error) {
	var out device.Region
	for off := int64(0); off < region.N; off += e.res.IOChunk {
		n := min(e.res.IOChunk, region.N-off)
		blks, err := e.tapeRead(p, src, region.Start+device.Addr(off), n)
		if err != nil {
			return device.Region{}, err
		}
		reg, err := dst.write(p, blks)
		if err != nil {
			return device.Region{}, err
		}
		if off == 0 {
			out = reg
		} else {
			out.N += reg.N
		}
	}
	return out, nil
}

// narrowTo jumps a trailing sorted stream forward to the last block
// whose fence key is still below target, when the fence index — the
// run's block-granularity CDF — predicts the gap is worth a fresh
// seek. Safe by construction: every skipped block starts at or before
// a fence key strictly below target, and a sorted run's block can hold
// nothing greater than the next block's first key.
func narrowTo(e *env, ts *tupleStream, fences []uint64, target uint64) {
	if len(fences) == 0 {
		return
	}
	i := sort.Search(len(fences), func(i int) bool { return fences[i] >= target })
	dst := int64(i - 1)
	// Only jump well past the read-ahead window: a short hop costs a
	// seek and saves nothing the streaming buffer wouldn't.
	if dst <= ts.off+2*ts.buf {
		return
	}
	e.stats.ProbeJumps++
	e.stats.ProbeSkippedBlocks += dst - ts.off
	ts.off = dst
	ts.cur = ts.cur[:0]
	ts.idx = 0
}

// mergeJoin streams the two sorted relations and emits every matching
// pair, buffering each R key group in memory (R is the smaller side;
// groups are its key multiplicities). Non-empty fence indexes enable
// probe narrowing: whichever stream trails skips straight past blocks
// that cannot contain the other stream's current key.
func mergeJoin(e *env, p *sim.Proc, rDrive device.Drive, rReg device.Region, rFences []uint64,
	sDrive device.Drive, sReg device.Region, sFences []uint64) error {

	sp := e.span(p, "merge-join")
	defer sp.Close(p)
	buf := min(e.res.IOChunk, e.res.MemoryBlocks/3)
	if buf < 1 {
		buf = 1
	}
	e.mem.acquire(2 * buf)
	defer e.mem.release(2 * buf)
	rs := &tupleStream{e: e, drive: rDrive, region: rReg, buf: buf}
	ss := &tupleStream{e: e, drive: sDrive, region: sReg, buf: buf}

	rT, rOK, err := rs.next(p)
	if err != nil {
		return err
	}
	sT, sOK, err := ss.next(p)
	if err != nil {
		return err
	}
	var group []block.Tuple
	for rOK && sOK {
		switch {
		case rT.Key < sT.Key:
			narrowTo(e, rs, rFences, sT.Key)
			rT, rOK, err = rs.next(p)
		case rT.Key > sT.Key:
			narrowTo(e, ss, sFences, rT.Key)
			sT, sOK, err = ss.next(p)
		default:
			key := rT.Key
			group = group[:0]
			for rOK && rT.Key == key {
				group = append(group, rT)
				rT, rOK, err = rs.next(p)
				if err != nil {
					return err
				}
			}
			for sOK && sT.Key == key {
				for _, g := range group {
					e.emit(p, g, sT)
				}
				if err := e.checkStop(); err != nil {
					return err
				}
				sT, sOK, err = ss.next(p)
				if err != nil {
					return err
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
