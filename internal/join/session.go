package join

import (
	"errors"
	"fmt"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sim"
)

// Session hosts a sequence of joins on one simulation kernel and one
// shared device complex — two tape drives and a disk array — so state
// that outlives a single join carries across queries: tape-drive head
// positions (later mounts of the same cartridge resume where the head
// stopped) and disk-resident staging files (the workload engine's
// cross-query cache). Run wraps a Session around one join; the
// workload engine runs a whole batch inside one.
//
// A Session is single-threaded in simulation terms: Exec, ExecShared
// and StageR must be called from a proc of the session's kernel, one
// at a time.
type Session struct {
	k              *sim.Kernel
	res            Resources
	driveR, driveS device.Drive
	disks          device.Store
	inj            fault.Injector
	retryBackoff   *obs.Histogram
	unitRestarts   *obs.Counter
	// retired holds devices swapped out by a mid-run degrade; they are
	// kept until Close so their OS resources (I/O workers, scratch
	// dirs) are released exactly once.
	retired []interface{ Close() error }
}

// NewSession builds the device complex described by res: two tape
// drives named "R" and "S" and a striped disk array, with trace,
// metrics and fault-injection wiring attached.
func NewSession(res Resources) (*Session, error) {
	res = res.WithDefaults()
	if err := res.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	driveR, err := res.Backend.NewDrive(k, "R", res.Tape)
	if err != nil {
		return nil, err
	}
	driveS, err := res.Backend.NewDrive(k, "S", res.Tape)
	if err != nil {
		driveR.Close()
		return nil, err
	}
	array, err := res.Backend.NewStore(k, device.StoreConfig{
		NumDisks:        res.NumDisks,
		AggregateRate:   res.DiskRate,
		RequestOverhead: res.DiskOverhead,
		BlocksPerDisk:   (res.DiskBlocks + int64(res.NumDisks) - 1) / int64(res.NumDisks),
	})
	if err != nil {
		driveR.Close()
		driveS.Close()
		return nil, err
	}

	// Wall-clocked backends get dual-clock spans; virtual-only runs
	// keep zero wall fields. The flight recorder sees span boundaries
	// either way.
	if _, ok := res.Backend.(device.WallStatser); ok {
		res.Spans.EnableWallClock()
	}
	res.Spans.SetFlight(res.Flight)
	inj := attach(res, nil, driveR, driveS, array)
	return &Session{
		k: k, res: res,
		driveR: driveR, driveS: driveS, disks: array,
		inj: inj,
		retryBackoff: res.Metrics.Histogram("join_retry_backoff_seconds",
			"Backoff waits before fault-recovery re-reads.", obs.BackoffBuckets),
		unitRestarts: res.Metrics.Counter("join_unit_restarts_total",
			"Work units restarted from a checkpoint after a fault."),
	}, nil
}

// attach wires new devices into the run: its tracker, its metrics
// registry and its fault injector. Every device a run builds —
// initially or as a mid-run replacement — goes through here, so none
// misses a hook. A nil inj builds the run's injector from res.Faults
// once the devices' series are registered (which keeps them first in
// the exposition); attach returns the injector it set.
func attach(res Resources, inj fault.Injector, devs ...device.Instrumented) fault.Injector {
	for _, d := range devs {
		d.SetTracker(res.Spans)
		d.SetMetrics(res.Metrics)
	}
	if inj == nil && res.Faults != nil {
		inj = fault.Instrument(res.Faults, res.Metrics, res.Flight)
	}
	for _, d := range devs {
		d.SetInjector(inj)
	}
	return inj
}

// Kernel returns the session's simulation kernel.
func (s *Session) Kernel() *sim.Kernel { return s.k }

// DriveR returns the R-side tape drive.
func (s *Session) DriveR() device.Drive { return s.driveR }

// DriveS returns the S-side tape drive.
func (s *Session) DriveS() device.Drive { return s.driveS }

// Disks returns the shared disk array.
func (s *Session) Disks() device.Store { return s.disks }

// Resources returns the session's resource configuration (defaults
// filled).
func (s *Session) Resources() Resources { return s.res }

// Finish closes the observability tracker at the kernel's final time.
// Call once after the kernel has drained.
func (s *Session) Finish() { s.res.Spans.Finish(s.k.Now()) }

// Close releases the session's devices — current and retired — and
// their OS resources (file-backend I/O workers and scratch
// directories). A no-op on the virtual backend. Safe to call more
// than once; call it after the kernel has drained.
func (s *Session) Close() error {
	var errs []error
	for _, c := range s.retired {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	s.retired = nil
	for _, c := range []interface{ Close() error }{s.driveR, s.driveS, s.disks} {
		if c != nil {
			if err := c.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// ExecOptions tune one join executed inside a Session.
type ExecOptions struct {
	// MemoryBlocks and DiskBlocks, when non-zero, override the
	// session's M and D for this run: the workload engine's admission
	// control partitions the shared budgets across concurrent queries
	// this way. The physical array keeps the session's capacity; the
	// override only bounds what this run's method plans with.
	MemoryBlocks, DiskBlocks int64
	// StagedR, when non-nil, is a disk-resident unfiltered-or-
	// equivalently-filtered copy of R staged by an earlier run (the
	// workload staging cache). Methods that begin by plain-copying R
	// to disk — the Nested Block family — use it directly and skip
	// their Step I tape read. Ownership stays with the caller: the
	// run never frees the file. Hash-partitioning methods ignore it
	// (their Step I layout depends on M).
	StagedR device.File
	// StopAfter, when positive, stops the join once that many output
	// pairs have been emitted: the run unwinds cleanly (pipelines
	// drain, scratch frees) and succeeds with Stats.Stopped set. The
	// emitted pairs are a prefix of the full result — a sub-multiset
	// of what the complete run would produce. Distinct from any
	// materialization limit a caller's sink applies: StopAfter stops
	// device work, a sink-side cap merely discards.
	//
	// StopAfter (and any StreamSink-typed sink) puts the run in
	// streaming mode: output flows to the sink as units commit instead
	// of being staged until run end, which is what makes time-to-first-
	// tuple real. The trade-off is that a drive-loss degrade can no
	// longer transparently re-plan once pairs have been delivered —
	// such a run fails with the loss error instead.
	StopAfter int64
}

// devSnapshot records cumulative device counters at exec start so
// per-run stats can be reported as deltas on the shared devices.
type devSnapshot struct {
	driveR, driveS device.Drive
	rStats, sStats device.DriveStats
	rBusy, sBusy   sim.Duration
	array          device.Store
	aStats         device.DiskStats
	aBusy          sim.Duration
}

func (s *Session) snapshot() devSnapshot {
	return devSnapshot{
		driveR: s.driveR, driveS: s.driveS,
		rStats: s.driveR.DriveStats(), sStats: s.driveS.DriveStats(),
		rBusy: s.driveR.BusyTime(), sBusy: s.driveS.BusyTime(),
		array:  s.disks,
		aStats: s.disks.DiskStats(), aBusy: s.disks.BusyTime(),
	}
}

// newEnv builds a method runtime context on the session's devices.
func (s *Session) newEnv(t0 sim.Time, spec Spec, res Resources, sink Sink) *env {
	return &env{
		k: s.k, spec: spec, res: res,
		driveR: s.driveR, driveS: s.driveS, disks: s.disks,
		mem: &ledger{}, sink: sink, stats: &Stats{}, t0: t0,
		eodR: spec.R.Media.EOD(), eodS: spec.S.Media.EOD(),
		inj:          s.inj,
		retryBackoff: s.retryBackoff,
		unitRestarts: s.unitRestarts,
	}
}

// ensureLoaded mounts the spec's cartridges into drives that hold
// different media. Loading itself is free of virtual time — the paper
// assumes pre-mounted input tapes — so a scheduler that wants mount
// delays charged must hold for them before calling Exec (the workload
// engine does).
func (s *Session) ensureLoaded(spec Spec) {
	if s.driveR.Media() != spec.R.Media {
		s.driveR.Load(spec.R.Media)
	}
	if s.driveS.Media() != spec.S.Media {
		s.driveS.Load(spec.S.Media)
	}
}

// Exec runs one join on the session's devices from within a proc of
// the session's kernel. Stats are per-run: device counters are
// reported as deltas, Response is the run's own duration, and disk
// high water restarts from the space currently held (staging-cache
// files included). On a drive-loss degrade the replacement devices
// become the session's devices for subsequent runs.
func (s *Session) Exec(p *sim.Proc, m Method, spec Spec, sink Sink, opts ExecOptions) (*Result, error) {
	res := s.res
	if opts.MemoryBlocks > 0 {
		res.MemoryBlocks = opts.MemoryBlocks
	}
	if opts.DiskBlocks > 0 {
		res.DiskBlocks = opts.DiskBlocks
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := Check(m, spec, res); err != nil {
		return nil, fmt.Errorf("%s: %w", m.Symbol(), err)
	}
	if sink == nil {
		sink = &CountSink{}
	}
	s.ensureLoaded(spec)

	snap := s.snapshot()
	s.disks.ResetHighWater()
	e := s.newEnv(p.Now(), spec, res, sink)
	e.stagedR = opts.StagedR
	e.stopAfter = opts.StopAfter
	if ss, ok := sink.(StreamSink); ok {
		e.streamSink = ss
	}
	streaming := e.stopAfter > 0 || e.streamSink != nil
	// Stage the run's output so a drive-loss re-plan can discard the
	// failed attempt's emissions and start over without
	// double-delivering. Streaming runs skip the whole-run staging —
	// the point is that pairs reach the sink as units commit — and
	// give up the transparent re-plan in exchange (see
	// ExecOptions.StopAfter).
	e.wholeRun = !res.DisableRecovery && !streaming
	e.staging = e.wholeRun
	// A sink that can rewind itself makes the copy needless: it takes
	// the pairs live, and every discard point rewinds it instead.
	if rw, ok := sink.(Rewinder); ok && e.wholeRun {
		e.rew, e.runMark = rw, rw.Mark()
	}

	runErr := m.run(e, p)
	if errors.Is(runErr, ErrStopped) {
		e.stats.Stopped = true
		runErr = nil
	}
	if runErr != nil && !res.DisableRecovery &&
		fault.Acts(fault.Degrade, runErr) && !e.stats.DriveLost {
		if streaming && e.emitted > 0 {
			runErr = fmt.Errorf("join: drive lost after %d pairs streamed; cannot re-plan delivered output: %w",
				e.emitted, runErr)
		} else {
			runErr = e.degradeRerun(p, runErr)
			if errors.Is(runErr, ErrStopped) {
				e.stats.Stopped = true
				runErr = nil
			}
		}
	}
	// A degrade swapped in replacement devices; they are the session's
	// devices from here on. The replaced originals are kept until
	// Close so their OS resources are released exactly once.
	for _, d := range e.retiredDrives {
		s.retired = append(s.retired, d)
	}
	for _, a := range e.retiredArrays {
		s.retired = append(s.retired, a)
	}
	s.driveR, s.driveS, s.disks = e.driveR, e.driveS, e.disks
	if runErr != nil {
		// A failed run delivers nothing, live-fed sink included.
		if e.rew != nil {
			e.rew.Rewind(e.runMark)
		}
		return nil, fmt.Errorf("%s: %w", m.Symbol(), runErr)
	}
	// Commit: the first pair counts as delivered now, live-fed or not.
	if e.rew != nil && e.emitted > 0 {
		e.stats.FirstTuple = sim.Duration(p.Now() - e.t0)
	}
	e.log.flush(p, e.deliver)

	s.finishStats(e, p.Now(), snap)
	result := &Result{Method: m.Symbol(), Stats: *e.stats}
	if e.dbuf != nil {
		result.BufferTrace = e.dbuf.Trace()
		result.BufferCapacity = e.dbufCap
	}
	return result, nil
}

// finishStats fills the run's device stats as deltas against the
// exec-start snapshot. Devices created during the run (degrade
// replacements) contribute their full counters; the snapshotted
// originals — whether still active or retired mid-run — contribute
// what the run added.
func (s *Session) finishStats(e *env, now sim.Time, snap devSnapshot) {
	st := e.stats
	st.Response = sim.Duration(now - e.t0)
	for _, d := range append([]device.Drive{e.driveR, e.driveS}, e.retiredDrives...) {
		ds := d.DriveStats()
		st.TapeBlocksRead += ds.BlocksRead
		st.TapeBlocksWritten += ds.BlocksWritten
		st.TapeSeeks += ds.Seeks
		st.Faults += ds.Faults
	}
	st.TapeBlocksRead -= snap.rStats.BlocksRead + snap.sStats.BlocksRead
	st.TapeBlocksWritten -= snap.rStats.BlocksWritten + snap.sStats.BlocksWritten
	st.TapeSeeks -= snap.rStats.Seeks + snap.sStats.Seeks
	st.Faults -= snap.rStats.Faults + snap.sStats.Faults

	deadIDs := map[int]bool{}
	for _, a := range append([]device.Store{e.disks}, e.retiredArrays...) {
		as := a.DiskStats()
		st.DiskBlocksRead += as.BlocksRead
		st.DiskBlocksWritten += as.BlocksWritten
		st.Faults += as.Faults
		if hw := a.HighWater(); hw > st.DiskHighWater {
			st.DiskHighWater = hw
		}
		st.DiskBusy += a.BusyTime()
		for _, id := range a.DeadDisks() {
			deadIDs[id] = true
		}
	}
	st.DiskBlocksRead -= snap.aStats.BlocksRead
	st.DiskBlocksWritten -= snap.aStats.BlocksWritten
	st.Faults -= snap.aStats.Faults
	st.DiskBusy -= snap.aBusy
	st.DisksLost = len(deadIDs)

	st.MemHighWater = e.mem.high
	st.OutputTuples = e.sink.Count()
	st.TapeRBusy = e.driveR.BusyTime()
	st.TapeSBusy = e.driveS.BusyTime()
	if e.driveR == snap.driveR {
		st.TapeRBusy -= snap.rBusy
	}
	if e.driveS == snap.driveS {
		st.TapeSBusy -= snap.sBusy
	}
}

// StageR copies relation r from the R-side drive to a striped disk
// file without running a join — the workload engine's staging cache
// fills itself through this path, then hands the file to later runs
// via ExecOptions.StagedR. keep, when non-nil, filters tuples during
// the copy (a filtered copy must only serve queries with the same
// predicate). Returns the file and the copy's virtual duration.
func (s *Session) StageR(p *sim.Proc, r *relation.Relation, keep func(block.Tuple) bool) (device.File, sim.Duration, error) {
	if s.driveR.Media() != r.Media {
		s.driveR.Load(r.Media)
	}
	t0 := p.Now()
	e := s.newEnv(t0, Spec{R: r, S: r, FilterR: keep}, s.res, &CountSink{})
	f, err := copyRToDisk(e, p)
	if err != nil {
		return nil, 0, err
	}
	return f, sim.Duration(p.Now() - t0), nil
}
