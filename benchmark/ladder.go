package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	tapejoin "repro"
	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/filedev"
	"repro/internal/device/ioengine"
	"repro/internal/device/simdev"
	"repro/internal/hashutil"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tape"
)

// The layer ladder exercises each layer's public API in isolation, on
// the blocks, keys, block counts and request bodies the workload used,
// timing the calls from here. One span covers each batch of calls.

// ladderInputs describes the workload's data to the ladder.
type ladderInputs struct {
	backend      string
	rMB, sMB     int64
	tpb          int
	keys         uint64
	rSeed, sSeed int64
	memMB        float64
	diskMB       float64
	solo         bool
}

func (c *runCtx) ladderInputs(workload string) ladderInputs {
	sz := c.sz
	switch workload {
	case "solo-sim-match":
		return ladderInputs{"sim", sz.soloRMB, sz.soloSMB, sz.matchTPB, sz.matchKeys, c.relSeed(1), c.relSeed(2), sz.soloMemMB, sz.soloDiskMB, true}
	case "solo-file-scan":
		return ladderInputs{"file", sz.soloRMB, sz.soloSMB, sz.scanTPB, sz.scanKeys, c.relSeed(1), c.relSeed(2), sz.soloMemMB, sz.soloDiskMB, true}
	case "service-mix":
		return ladderInputs{"sim", sz.svcRMB, sz.svcSMB, sz.svcTPB, sz.svcKeys, c.relSeed(200), c.relSeed(100), sz.svcMemMB, sz.svcDiskMB, false}
	default: // batch-sched; 1e6 is CreateRelation's default key space
		return ladderInputs{"sim", sz.batRMB, sz.batSMB, sz.batTPB, 1_000_000, c.relSeed(200), c.relSeed(100), sz.batMemMB, sz.batDiskMB, false}
	}
}

type ladder struct {
	ctx    *runCtx
	in     ladderInputs
	m      metrics
	blocks []block.Block   // the workload's R then S blocks
	tuples [][]block.Tuple // blocks, decoded
	nTuple int64
	bytes  int64 // real bytes of blocks
	sink   uint64
}

// relConfig is the generator config CreateRelation would build.
func (in ladderInputs) relConfig(name string, tag byte, mb int64, keys uint64, seed int64) relation.Config {
	return relation.Config{
		Name: name, Tag: tag, Blocks: tapejoin.MB(mb), TuplesPerBlock: in.tpb,
		KeySpace: keys, PayloadBytes: 8, Seed: seed,
	}
}

// freshSpec generates R and S onto new cartridges with room for every
// method's scratch, as every solo round does.
func (in ladderInputs) freshSpec(keys uint64) (join.Spec, error) {
	scratch := 4 * tapejoin.MB(in.rMB+in.sMB)
	r, err := relation.WriteToTape(in.relConfig("R", 1, in.rMB, keys, in.rSeed), tape.NewMedia("tape-R", scratch))
	if err != nil {
		return join.Spec{}, err
	}
	s, err := relation.WriteToTape(in.relConfig("S", 2, in.sMB, keys, in.sSeed), tape.NewMedia("tape-S", scratch))
	return join.Spec{R: r, S: s}, err
}

func (in ladderInputs) resources(backend device.Backend) join.Resources {
	return join.Resources{
		Backend: backend, MemoryBlocks: tapejoin.MBf(in.memMB), DiskBlocks: tapejoin.MBf(in.diskMB),
	}.WithDefaults()
}

// timeLoop calls fn until the budget is spent, under one span, and
// returns the host nanoseconds per unit of work; fn returns the units
// it did.
func (l *ladder) timeLoop(name string, fn func() int64) float64 {
	_, end := l.ctx.tr.begin("ladder "+name, "ladder", 0)
	defer end()
	var units int64
	t0 := time.Now()
	for {
		units += fn()
		if el := time.Since(t0); el >= l.ctx.sz.ladderBudget {
			return float64(el) / float64(max(1, units))
		}
	}
}

// inKernel runs fn as the only proc of a fresh kernel.
func inKernel(fn func(p *sim.Proc)) error {
	k := sim.NewKernel()
	k.Spawn("bench", fn)
	return k.Run()
}

func runLadder(ctx *runCtx, workload string) (metrics, error) {
	l := &ladder{ctx: ctx, in: ctx.ladderInputs(workload), m: metrics{}}
	defer os.RemoveAll(filepath.Join(ctx.scratch, "ladder"))
	spec, err := l.in.freshSpec(l.in.keys)
	if err != nil {
		return nil, err
	}
	for _, rel := range []*relation.Relation{spec.R, spec.S} {
		blks, err := rel.Media.ReadSetup(rel.Region)
		if err != nil {
			return nil, err
		}
		l.blocks = append(l.blocks, blks...)
	}
	for _, b := range l.blocks {
		_, ts, err := b.Decode()
		if err != nil {
			return nil, err
		}
		l.tuples = append(l.tuples, ts)
		l.nTuple += int64(len(ts))
		l.bytes += int64(len(b))
	}
	steps := []func() error{l.relation, l.block, l.hashutil, l.sim, l.simdev, l.obs, l.cost, l.join}
	if l.in.backend == "file" {
		steps = append(steps, l.ioengine, l.filedev, l.fileOverlap)
	}
	if workload == "service-mix" {
		steps = append(steps, l.service)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

func (l *ladder) relation() error {
	cfg := l.in.relConfig("R", 1, l.in.rMB, l.in.keys, l.in.rSeed)
	var err error
	ns := l.timeLoop("relation.WriteToTape", func() int64 {
		if _, e := relation.WriteToTape(cfg, tape.NewMedia("gen", cfg.Blocks)); e != nil {
			err = e
		}
		return cfg.Tuples()
	})
	l.m["relation.gen_tuples_per_s"] = 1e9 / ns
	return err
}

func (l *ladder) block() error {
	l.m["block.encode_ns_per_tuple"] = l.timeLoop("block.Builder", func() int64 {
		b := block.NewBuilder(1)
		for _, ts := range l.tuples {
			for _, t := range ts {
				b.Append(t)
			}
			l.sink += uint64(len(b.Finish()))
		}
		return l.nTuple
	})
	var hp hostProbe
	var decoded int64
	var err error
	hp.start()
	l.m["block.decode_ns_per_tuple"] = l.timeLoop("block.Decode", func() int64 {
		for _, b := range l.blocks {
			_, ts, e := b.Decode()
			if e != nil {
				err = e
			}
			l.sink += uint64(len(ts))
		}
		decoded += l.nTuple
		return l.nTuple
	})
	l.m["block.decode_alloc_b_per_tuple"] = float64(hp.stop().allocB) / float64(decoded)
	nsPerByte := l.timeLoop("block.Verify", func() int64 {
		for _, b := range l.blocks {
			if e := b.Verify(); e != nil {
				err = e
			}
		}
		return l.bytes
	})
	l.m["block.verify_mb_per_s"] = 1e3 / nsPerByte
	return err
}

func (l *ladder) hashutil() error {
	buckets := 16
	if plan, err := hashutil.PlanBuckets(tapejoin.MB(l.in.rMB), tapejoin.MBf(l.in.memMB)); err == nil {
		buckets = plan.B
	}
	l.m["hashutil.bucket_ns_per_key"] = l.timeLoop("hashutil.Bucket", func() int64 {
		for _, ts := range l.tuples {
			for _, t := range ts {
				l.sink += uint64(hashutil.Bucket(t.Key, buckets))
			}
		}
		return l.nTuple
	})
	return nil
}

// simBatch is how many kernel steps one batch of the sim ladder takes.
const simBatch = 20000

func (l *ladder) sim() error {
	var err error
	keep := func(e error) {
		if e != nil {
			err = e
		}
	}
	l.m["sim.hold_switch_ns"] = l.timeLoop("sim.Hold", func() int64 {
		keep(inKernel(func(p *sim.Proc) {
			for i := 0; i < simBatch; i++ {
				p.Hold(1)
			}
		}))
		return simBatch
	})
	// Two procs take turns on a one-slot resource; the holder's Hold is
	// what lets the other queue up, so one unit is a hold plus a handoff.
	l.m["sim.resource_handoff_ns"] = l.timeLoop("sim.Resource", func() int64 {
		k := sim.NewKernel()
		r := sim.NewResource(k, "slot", 1)
		for _, name := range []string{"a", "b"} {
			k.Spawn(name, func(p *sim.Proc) {
				for i := 0; i < simBatch/2; i++ {
					r.Acquire(p)
					p.Hold(1)
					r.Release(p)
				}
			})
		}
		keep(k.Run())
		return simBatch
	})
	l.m["sim.container_handoff_ns"] = l.timeLoop("sim.Container", func() int64 {
		k := sim.NewKernel()
		c := sim.NewContainer(k, "slot", 1, 0)
		k.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < simBatch; i++ {
				c.Put(p, 1)
			}
		})
		k.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < simBatch; i++ {
				c.Get(p, 1)
			}
		})
		keep(k.Run())
		return simBatch
	})
	l.m["sim.async_roundtrip_ns"] = l.timeLoop("sim.StartIO", func() int64 {
		posts := make(chan *sim.Completion)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for c := range posts {
				c.Post(0, nil)
			}
		}()
		keep(inKernel(func(p *sim.Proc) {
			for i := 0; i < simBatch/4; i++ {
				c := p.StartIO("bench")
				posts <- c
				if _, e := p.Await(c); e != nil {
					keep(e)
				}
			}
		}))
		close(posts)
		<-done
		return simBatch / 4
	})
	return err
}

// storeConfig sizes a scratch store for n blocks, with the session's
// rates.
func storeConfig(res join.Resources, n int64) device.StoreConfig {
	return device.StoreConfig{
		NumDisks: res.NumDisks, AggregateRate: res.DiskRate, RequestOverhead: res.DiskOverhead,
		BlocksPerDisk: n/int64(res.NumDisks) + 1,
	}
}

// chunked calls fn over [0, n) in IOChunk-sized pieces.
func chunked(n int64, fn func(off, cnt int64) error) error {
	const ioChunk = 32 // join.Resources' default IOChunk
	for off := int64(0); off < n; off += ioChunk {
		if err := fn(off, min(ioChunk, n-off)); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) simdev() error {
	res := l.in.resources(simdev.Backend{})
	n := int64(len(l.blocks))
	media := tape.NewMedia("ladder", n)
	region, err := media.AppendSetup(l.blocks)
	if err != nil {
		return err
	}
	run := func(fn func(k *sim.Kernel, p *sim.Proc) error) {
		k := sim.NewKernel()
		k.Spawn("bench", func(p *sim.Proc) {
			if e := fn(k, p); e != nil {
				err = e
			}
		})
		if e := k.Run(); e != nil {
			err = e
		}
	}
	ns := l.timeLoop("simdev.Drive.ReadAt", func() int64 {
		run(func(k *sim.Kernel, p *sim.Proc) error {
			d, err := res.Backend.NewDrive(k, "R", res.Tape)
			if err != nil {
				return err
			}
			d.Load(media)
			return chunked(n, func(off, cnt int64) error {
				_, err := d.ReadAt(p, region.Start+device.Addr(off), cnt)
				return err
			})
		})
		return n
	})
	l.m["simdev.drive_read_blocks_per_s"] = 1e9 / ns
	ns = l.timeLoop("simdev.Store", func() int64 {
		run(func(k *sim.Kernel, p *sim.Proc) error {
			st, err := res.Backend.NewStore(k, storeConfig(res, n))
			if err != nil {
				return err
			}
			f, err := st.Create("ladder", nil)
			if err != nil {
				return err
			}
			defer f.Free()
			if err := chunked(n, func(off, cnt int64) error { return f.Append(p, l.blocks[off:off+cnt]) }); err != nil {
				return err
			}
			return chunked(n, func(off, cnt int64) error {
				_, err := f.ReadAt(p, off, cnt)
				return err
			})
		})
		return 2 * n
	})
	l.m["simdev.store_rw_blocks_per_s"] = 1e9 / ns
	return err
}

func (l *ladder) obs() error {
	var err error
	l.m["obs.span_ns"] = l.timeLoop("obs.Tracker", func() int64 {
		t := obs.NewTracker()
		t.SetFlight(obs.NewFlightRecorder(0)) // as the system does: the recorder is always on
		if e := inKernel(func(p *sim.Proc) {
			for i := 0; i < simBatch; i++ {
				t.Begin(p, "bench").Close(p)
			}
		}); e != nil {
			err = e
		}
		return simBatch
	})
	f := obs.NewFlightRecorder(0)
	l.m["obs.flight_post_ns"] = l.timeLoop("obs.FlightRecorder", func() int64 {
		for i := 0; i < simBatch; i++ {
			f.Record("bench", "ladder", "post")
		}
		return simBatch
	})
	return err
}

func (l *ladder) cost() error {
	sys, err := tapejoin.NewSystem(tapejoin.Config{MemoryMB: l.in.memMB, DiskMB: l.in.diskMB})
	if err != nil {
		return err
	}
	defer sys.Close()
	ns := l.timeLoop("System.Advise", func() int64 {
		l.sink += uint64(len(sys.Advise(l.in.rMB, l.in.sMB, l.in.rMB, l.in.rMB)))
		return 1
	})
	l.m["cost.advise_us"] = ns / 1e3
	return nil
}

// ladderReps is how often the ladder repeats a whole join; it reports
// the median.
const ladderReps = 3

// firstPairSink notes the host time of the first Emit. Being a
// StreamSink puts the run in streaming mode, so pairs arrive as units
// commit, not at run end.
type firstPairSink struct {
	join.CountSink
	t0    time.Time
	first time.Duration
}

func (s *firstPairSink) Emit(p *sim.Proc, r, t block.Tuple) {
	if s.Matches == 0 {
		s.first = time.Since(s.t0)
	}
	s.CountSink.Emit(p, r, t)
}

func (s *firstPairSink) Satisfied() bool { return false }

// joinRun is one whole join through join.RunWith on fresh cartridges.
type joinRun struct {
	wallMS, firstMS float64
	allocB          uint64
	matches         int64
	virtual         time.Duration
}

func (l *ladder) runJoin(method string, keys uint64, backend device.Backend, streaming bool, opts join.ExecOptions) (joinRun, error) {
	m, err := join.BySymbol(method)
	if err != nil {
		return joinRun{}, err
	}
	spec, err := l.in.freshSpec(keys)
	if err != nil {
		return joinRun{}, err
	}
	fp := &firstPairSink{}
	var sink join.Sink = &fp.CountSink
	if streaming {
		sink = fp
	}
	var hp hostProbe
	hp.start()
	_, end := l.ctx.tr.begin("ladder join.RunWith "+method, "ladder", 0)
	fp.t0 = time.Now()
	res, err := join.RunWith(m, spec, l.in.resources(backend), sink, opts)
	wall := time.Since(fp.t0)
	end()
	if err != nil {
		return joinRun{}, fmt.Errorf("ladder %s: %w", method, err)
	}
	return joinRun{
		wallMS: ms(wall), firstMS: ms(fp.first), allocB: hp.stop().allocB,
		matches: fp.Matches, virtual: res.Stats.Response,
	}, nil
}

// medianRun repeats a join and returns the run with the median wall.
func (l *ladder) medianRun(method string, keys uint64, streaming bool, opts join.ExecOptions) (joinRun, error) {
	runs := make([]joinRun, ladderReps)
	for i := range runs {
		var err error
		if runs[i], err = l.runJoin(method, keys, l.backend(), streaming, opts); err != nil {
			return joinRun{}, err
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].wallMS < runs[j].wallMS })
	return runs[len(runs)/2], nil
}

// backend builds the workload's backend; a file backend gets its own
// scratch directory, removed when the device complex closes.
func (l *ladder) backend() device.Backend {
	if l.in.backend == "file" {
		return filedev.New(filepath.Join(l.ctx.scratch, "ladder"))
	}
	return simdev.Backend{}
}

func (l *ladder) join() error {
	for _, m := range []string{"SYM-H", "CDT-GH"} {
		r, err := l.medianRun(m, l.in.keys, true, join.ExecOptions{})
		if err != nil {
			return err
		}
		l.m["join.first_pair_wall_ms."+m] = r.firstMS
	}
	r, err := l.medianRun("SYM-H", l.in.keys, false, join.ExecOptions{StopAfter: svcStopAfter})
	if err != nil {
		return err
	}
	l.m["join.stop_after_ms"] = r.wallMS
	if !l.in.solo {
		return nil
	}
	r, err = l.medianRun(tracedOnlyMethod, l.in.keys, false, join.ExecOptions{})
	if err != nil {
		return err
	}
	l.m[metricName("join.", tracedOnlyMethod, ".op_ms_p50")] = r.wallMS
	l.m[metricName("join.", tracedOnlyMethod, ".alloc_b_per_tuple")] = float64(r.allocB) / float64(l.nTuple)
	if l.in.backend == "sim" {
		l.m[metricName("virtual.", tracedOnlyMethod, "")] = r.virtual.Seconds()
	}
	// The outside-in price of the emit funnel: the same join, same
	// geometry, with many pairs and with almost none.
	dense, err := l.medianRun("CDT-GH", l.ctx.sz.matchKeys, false, join.ExecOptions{})
	if err != nil {
		return err
	}
	sparse, err := l.medianRun("CDT-GH", l.ctx.sz.scanKeys, false, join.ExecOptions{})
	if err != nil {
		return err
	}
	if d := dense.matches - sparse.matches; d > 0 {
		l.m["join.marginal_ns_per_pair"] = (dense.wallMS - sparse.wallMS) * 1e6 / float64(d)
	}
	return nil
}

func (l *ladder) ioengine() error {
	e := ioengine.New(0)
	w := e.Worker("bench")
	defer w.Close()
	var err error
	l.m["ioengine.submit_complete_ns"] = l.timeLoop("ioengine.Worker.Do", func() int64 {
		if e := inKernel(func(p *sim.Proc) {
			for i := 0; i < simBatch/4; i++ {
				if _, e := w.Do(p, func() error { return nil }); e != nil {
					err = e
				}
			}
		}); e != nil {
			err = e
		}
		return simBatch / 4
	})
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

func (l *ladder) filedev() error {
	dir := filepath.Join(l.ctx.scratch, "ladder-filedev")
	defer os.RemoveAll(dir)
	res := l.in.resources(filedev.New(dir))
	n := int64(len(l.blocks))
	mbPerS := func(d time.Duration) float64 { return float64(l.bytes) / 1e6 / d.Seconds() }
	var appendS, readS, swriteS, sreadS, ratio []float64
	for rep := 0; rep < ladderReps; rep++ {
		_, end := l.ctx.tr.begin("ladder filedev", "ladder", 0)
		k := sim.NewKernel()
		var err error
		k.Spawn("bench", func(p *sim.Proc) {
			err = func() error {
				d, err := res.Backend.NewDrive(k, "R", res.Tape)
				if err != nil {
					return err
				}
				defer d.Close()
				d.Load(tape.NewMedia("ladder", n))
				t0 := time.Now()
				if err := chunked(n, func(off, cnt int64) error {
					_, err := d.Append(p, l.blocks[off:off+cnt])
					return err
				}); err != nil {
					return err
				}
				appendS = append(appendS, mbPerS(time.Since(t0)))
				t0 = time.Now()
				if err := chunked(n, func(off, cnt int64) error {
					_, err := d.ReadAt(p, device.Addr(off), cnt)
					return err
				}); err != nil {
					return err
				}
				readS = append(readS, mbPerS(time.Since(t0)))
				onDisk, err := dirBytes(dir)
				if err != nil {
					return err
				}
				ratio = append(ratio, float64(onDisk)/float64(l.bytes))

				st, err := res.Backend.NewStore(k, storeConfig(res, n))
				if err != nil {
					return err
				}
				defer st.Close()
				f, err := st.Create("ladder", nil)
				if err != nil {
					return err
				}
				defer f.Free()
				t0 = time.Now()
				if err := chunked(n, func(off, cnt int64) error { return f.Append(p, l.blocks[off:off+cnt]) }); err != nil {
					return err
				}
				swriteS = append(swriteS, mbPerS(time.Since(t0)))
				t0 = time.Now()
				if err := chunked(n, func(off, cnt int64) error {
					_, err := f.ReadAt(p, off, cnt)
					return err
				}); err != nil {
					return err
				}
				sreadS = append(sreadS, mbPerS(time.Since(t0)))
				return nil
			}()
		})
		if e := k.Run(); e != nil {
			err = e
		}
		end()
		if err != nil {
			return fmt.Errorf("ladder filedev: %w", err)
		}
	}
	l.m["filedev.append_mb_per_s"] = median(appendS)
	l.m["filedev.read_mb_per_s"] = median(readS)
	l.m["filedev.store_write_mb_per_s"] = median(swriteS)
	l.m["filedev.store_read_mb_per_s"] = median(sreadS)
	l.m["filedev.disk_b_per_payload_b"] = median(ratio)
	return nil
}

// fileOverlap runs each concurrent method once on its own file backend
// and reads the engine's wall-clock account: a concurrent method waits
// for the slower of its parallel device operations, so overlap is what
// its latency has to gain.
func (l *ladder) fileOverlap() error {
	var overlaps []float64
	for _, m := range []string{"CDT-NB/MB", "CDT-NB/DB", "CDT-GH", "CTT-GH", "SYM-H"} {
		fb := filedev.New(filepath.Join(l.ctx.scratch, "ladder"))
		if _, err := l.runJoin(m, l.in.keys, fb, false, join.ExecOptions{}); err != nil {
			return err
		}
		ws := fb.WallStats()
		l.m["ioengine.busy_s"] += ws.Busy.Seconds()
		l.m["ioengine.union_s"] += ws.Union.Seconds()
		overlaps = append(overlaps, ws.Overlap())
		for _, h := range fb.DeviceHealths() {
			l.m["ioengine.retries"] += float64(h.Retries)
			l.m["ioengine.timeouts"] += float64(h.Timeouts)
		}
	}
	var sum float64
	for _, o := range overlaps {
		sum += o
	}
	l.m["ioengine.overlap_ratio"] = sum / float64(len(overlaps))
	return nil
}

func (l *ladder) service() error {
	qs := svcMix(l.ctx, 1, nil)
	var err error
	ns := l.timeLoop("service.DecodeRequest", func() int64 {
		for _, q := range qs {
			if _, e := service.DecodeRequest(q.body); e != nil {
				err = e
			}
		}
		return int64(len(qs))
	})
	l.m["service.decode_request_us"] = ns / 1e3
	return err
}
