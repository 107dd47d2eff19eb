// Package join implements the seven tertiary join methods of the
// paper: the disk–tape methods DT-NB, CDT-NB/MB, CDT-NB/DB, DT-GH and
// CDT-GH, and the tape–tape methods CTT-GH and TT-GH. Each method
// moves real tuple blocks through the simulated tape drives and disk
// array, producing verified join output while the simulation kernel
// accounts virtual response time under the paper's transfer-only cost
// model.
package join

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/device/simdev"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sim"
)

// Discipline selects the double-buffering scheme for methods that
// stage S through disk (Section 4).
type Discipline int

const (
	// Interleaved shares one physical buffer between consecutive
	// iterations (the paper's scheme).
	Interleaved Discipline = iota
	// SplitHalves is the naive two-halves baseline, kept for
	// ablation.
	SplitHalves
)

// DefaultDiskTapeSpeedRatio is the paper's X_D = 2 X_T assumption
// (Section 5.3): the disk array's aggregate rate defaults to twice
// the effective tape rate. The facade and WithDefaults both derive
// disk rates from this one constant.
const DefaultDiskTapeSpeedRatio = 2.0

// Resources describes the device complex available to a join: the
// paper's M, D, n, X_D and X_T.
type Resources struct {
	// Backend constructs the device complex: simdev (virtual-time
	// simulator, the default) or filedev (real OS files, wall-clock
	// transfer timing).
	Backend device.Backend
	// MemoryBlocks is M, the main memory allocated to the join.
	MemoryBlocks int64
	// DiskBlocks is D, total disk scratch space across all drives.
	DiskBlocks int64
	// NumDisks is n.
	NumDisks int
	// DiskRate is X_D, aggregate disk bytes/second.
	DiskRate float64
	// DiskOverhead is the per-request positioning cost.
	DiskOverhead sim.Duration
	// Tape is the drive profile for both tape drives (X_T etc.).
	Tape device.DriveConfig
	// IOChunk is the preferred transfer request size in blocks;
	// defaults to 32 (>= the 30 blocks that make positioning
	// negligible, Section 3.2).
	IOChunk int64
	// Discipline selects the double-buffering scheme.
	Discipline Discipline
	// SkewAware enables skew-aware partitioning in the Grace-Hash
	// methods: a key-frequency sketch is built while R streams through
	// the partitioner, and buckets the uniform plan left oversized are
	// repaired on disk — heavy-hitter keys get dedicated partitions,
	// residual collision pileups are split by a secondary hash — so
	// every partition fits a single memory load where the key
	// distribution allows it. Off by default: the uniform path is
	// byte-for-byte the paper's plan.
	SkewAware bool
	// ProbeNarrow enables CDF-model probe-range narrowing in the
	// sort-merge path: sparse (first key, block) samples collected
	// while the sorted runs are written let the merge join seek past
	// provably matchless stretches of either input instead of
	// streaming through them. Off by default.
	ProbeNarrow bool
	// Faults, when non-nil, is the deterministic fault schedule
	// injected into the tape drives and disk array.
	Faults *fault.Schedule
	// DisableRecovery turns retry/checkpoint/degrade handling off: the
	// first device error aborts the join.
	DisableRecovery bool
	// Spans, when non-nil, is the run's tracker: it records the
	// hierarchical phase spans and every device I/O event, stamped
	// with the phase that issued it.
	Spans *obs.Tracker
	// Metrics, when non-nil, receives device/buffer/fault counters,
	// gauges and histograms.
	Metrics *obs.Registry
	// Flight, when non-nil, is the always-on flight recorder: span
	// boundaries, fault decisions, device health transitions and
	// retries land in its ring buffer for live snapshots.
	Flight *obs.FlightRecorder
}

// WithDefaults fills zero fields with the calibrated defaults used in
// the paper's experiments.
func (r Resources) WithDefaults() Resources {
	if r.Backend == nil {
		r.Backend = simdev.Backend{}
	}
	if r.NumDisks == 0 {
		r.NumDisks = 2
	}
	if r.DiskRate == 0 {
		r.DiskRate = DefaultDiskTapeSpeedRatio * device.DLT4000().EffectiveRate()
	}
	if r.DiskOverhead == 0 {
		r.DiskOverhead = 18 * time.Millisecond
	}
	if r.Tape == (device.DriveConfig{}) {
		r.Tape = device.DLT4000()
	}
	if r.IOChunk == 0 {
		r.IOChunk = 32
	}
	return r
}

// Validate reports resource configuration errors.
func (r Resources) Validate() error {
	if r.MemoryBlocks < 2 {
		return fmt.Errorf("join: M = %d blocks; need at least 2", r.MemoryBlocks)
	}
	if r.DiskBlocks < 1 {
		return fmt.Errorf("join: D = %d blocks", r.DiskBlocks)
	}
	if r.NumDisks < 1 {
		return fmt.Errorf("join: %d disks", r.NumDisks)
	}
	if r.IOChunk < 1 {
		return fmt.Errorf("join: IOChunk = %d", r.IOChunk)
	}
	return r.Tape.Validate()
}

// Spec names the two relations to join. R must be the smaller
// relation and the relations must live on distinct cartridges (the
// paper's two-drive configuration).
type Spec struct {
	R, S *relation.Relation

	// FilterR and FilterS, when non-nil, drop input tuples before the
	// join — pushed-down selections. Filtering happens at the first
	// staging step of each relation, so a selective FilterR shrinks
	// R's disk or tape copy and every later scan of it.
	FilterR, FilterS func(block.Tuple) bool
}

// Validate reports spec errors.
func (s Spec) Validate() error {
	if s.R == nil || s.S == nil {
		return errors.New("join: nil relation")
	}
	if s.R.Media == s.S.Media {
		return errors.New("join: R and S must be on separate tapes")
	}
	if s.R.Region.N > s.S.Region.N {
		return fmt.Errorf("join: |R| = %d > |S| = %d; R must be the smaller relation",
			s.R.Region.N, s.S.Region.N)
	}
	return nil
}

// Typed feasibility errors: Check wraps one when a footprint does not
// fit.
var (
	// ErrNeedDiskForR marks disk–tape methods when D < |R| (+ buffer).
	ErrNeedDiskForR = errors.New("join: disk space cannot hold R")
	// ErrNeedMemory marks methods whose memory requirement (Table 2)
	// is unmet.
	ErrNeedMemory = errors.New("join: insufficient memory")
	// ErrNeedTapeScratch marks tape–tape methods lacking scratch tape
	// space for the hashed copies.
	ErrNeedTapeScratch = errors.New("join: insufficient scratch tape space")
	// ErrNeedDisk marks methods whose minimum disk requirement is
	// unmet.
	ErrNeedDisk = errors.New("join: insufficient disk space")
)

// Stats reports what a join did and what it cost.
type Stats struct {
	// Response is the virtual wall-clock of the whole join.
	Response sim.Duration
	// StepI is the virtual time when the setup phase (copying or
	// hashing R, plus hashing S for TT-GH) finished.
	StepI sim.Duration
	// Iterations counts Step II iterations (pieces S_i of S).
	Iterations int
	// RScans counts complete passes over R's data from any device,
	// including the initial read.
	RScans int
	// TapeBlocksRead/Written aggregate both drives.
	TapeBlocksRead    int64
	TapeBlocksWritten int64
	// TapeSeeks counts head repositionings across both drives.
	TapeSeeks int64
	// DiskBlocksRead/Written aggregate the array ("disk I/O traffic",
	// Figure 7).
	DiskBlocksRead    int64
	DiskBlocksWritten int64
	// DiskHighWater is the peak disk space used in blocks (Figure 6).
	DiskHighWater int64
	// MemHighWater is the peak accounted memory in blocks. For
	// concurrent methods this reports the true combined peak, which
	// the paper's Table 2 idealizes (see package doc).
	MemHighWater int64
	// OutputTuples is the join result cardinality.
	OutputTuples int64
	// RFiltered and SFiltered count input tuples dropped by the
	// pushed-down selections.
	RFiltered, SFiltered int64
	// TapeRBusy, TapeSBusy and DiskBusy are the devices' total busy
	// times, for utilization analysis (busy / Response). After a
	// drive-loss degrade both tape figures report the shared
	// transport.
	TapeRBusy sim.Duration
	TapeSBusy sim.Duration
	DiskBusy  sim.Duration

	// Fault-recovery accounting (see Resources.Faults and recover.go).
	// Faults counts injected faults the run hit; Retries the re-read
	// attempts; UnitRestarts the restarted work units; RecoveryTime
	// the virtual time spent in retry backoff (included in Response).
	Faults       int64
	Retries      int64
	UnitRestarts int64
	RecoveryTime sim.Duration
	// DisksLost counts permanently failed disk drives; DriveLost
	// reports a permanent tape-drive failure; DegradedTo names the
	// sequential method the join re-planned to after a drive loss
	// (empty when no degrade happened).
	DisksLost  int
	DriveLost  bool
	DegradedTo string

	// HeavyHitters is the number of keys the skew-aware planner
	// isolated into dedicated partitions; SkewPartitions is the final
	// partition count after repair. Both are zero when SkewAware is
	// off or the uniform plan needed no repair.
	HeavyHitters   int
	SkewPartitions int
	// ProbeJumps counts the merge-join probe-range jumps taken via the
	// CDF model (Resources.ProbeNarrow); ProbeSkippedBlocks is the
	// block reads those jumps avoided.
	ProbeJumps         int64
	ProbeSkippedBlocks int64

	// FirstTuple is the virtual time from run start to the first pair
	// delivered to the sink (zero when the join produced no output —
	// check OutputTuples to distinguish "instant" from "never"). For
	// runs whose output is staged for recovery, delivery means the
	// commit that made the pair visible to the caller's sink.
	FirstTuple sim.Duration
	// Stopped reports that the run terminated early because its output
	// was satisfied (ExecOptions.StopAfter reached or the StreamSink
	// reported Satisfied) rather than by exhausting its inputs.
	Stopped bool

	// WallElapsed is the real elapsed time of the kernel run and
	// WallOverlap the fraction of wall-clock device busy time that ran
	// concurrently across devices. Both are zero on the purely virtual
	// backend, and — unlike every field above — they are measured, not
	// simulated: they vary run to run and are excluded from regression
	// comparisons.
	WallElapsed sim.Duration
	WallOverlap float64
}

// DiskTraffic returns total disk blocks moved (Figure 7's metric).
func (s Stats) DiskTraffic() int64 { return s.DiskBlocksRead + s.DiskBlocksWritten }

// Result is the outcome of a join run.
type Result struct {
	Method string
	Stats  Stats
	// BufferTrace is the disk-buffer utilization trace (Figure 4) for
	// methods that double-buffer S through disk; nil otherwise.
	BufferTrace []buffer.Sample
	// BufferCapacity is the traced buffer's capacity in blocks.
	BufferCapacity int64
}

// Method is a tertiary join method. The paper's seven are names for
// rows of Table 2 (plan), which one executor runs; TT-SM and SYM-H
// run their own.
type Method interface {
	// Name is the long name, e.g. "Concurrent Tape-Tape Grace Hash Join".
	Name() string
	// Symbol is the paper's abbreviation, e.g. "CTT-GH".
	Symbol() string
	// footprint is the method's Need for relations of r and s blocks
	// on res (defaults filled), or an ErrNeedMemory error when its
	// plan cannot be formed in res.MemoryBlocks.
	footprint(r, s int64, res Resources) (Need, error)
	// run executes the join inside the simulation.
	run(e *env, p *sim.Proc) error
}

// ledger tracks memory usage without blocking. Chunk sizes are derived
// from M structurally, so the ledger verifies rather than enforces;
// see Stats.MemHighWater.
type ledger struct {
	used, high int64
}

func (l *ledger) acquire(n int64) {
	if n < 0 {
		panic("join: negative ledger acquire")
	}
	l.used += n
	if l.used > l.high {
		l.high = l.used
	}
}

func (l *ledger) release(n int64) {
	l.used -= n
	if l.used < 0 {
		panic("join: ledger under-release")
	}
}

// env is the runtime context handed to a method.
type env struct {
	k      *sim.Kernel
	spec   Spec
	res    Resources
	driveR device.Drive
	driveS device.Drive
	disks  device.Store
	mem    *ledger
	sink   Sink
	stats  *Stats
	// t0 is the virtual time the run started; Response and StepI are
	// measured from it so runs inside a shared Session report their
	// own durations.
	t0 sim.Time
	// stagedR, when non-nil, is a caller-owned disk copy of R
	// (ExecOptions.StagedR): copyRToDisk returns it instead of reading
	// tape, and freeR leaves it alone.
	stagedR device.File

	dbuf    buffer.DoubleBuffer // set by methods that stage S on disk
	dbufCap int64

	// inj is the (possibly metrics-wrapped) fault injector shared by
	// the original devices and any replacements built during recovery.
	inj fault.Injector
	// Recovery-path metric handles (nil-safe when Metrics is unset).
	retryBackoff *obs.Histogram
	unitRestarts *obs.Counter

	// Recovery state. log stages output that may yet be discarded:
	// always under wholeRun (so a drive-loss re-plan can rewind to
	// zero), else only inside a staged unit; staging says whether emit
	// stages right now. A whole-run-staged run whose sink is a Rewinder
	// bypasses the log: rew is that sink, fed live by emit and rewound
	// wherever the log is, and runMark is its state at run start.
	// Retired devices keep contributing to final stats after a degrade
	// swaps them out.
	log           stageLog
	wholeRun      bool
	staging       bool
	rew           Rewinder
	runMark       any
	retiredDrives []device.Drive
	retiredArrays []device.Store
	eodR, eodS    device.Addr // media EODs at run start, for scratch rollback

	// Streaming state. All emissions funnel through e.emit so the run
	// can count pairs, stamp the first-tuple time, and stop early.
	// stopAfter caps emitted pairs (ExecOptions.StopAfter); streamSink
	// is the caller's sink when it implements StreamSink, polled for
	// Satisfied; emitted counts pairs the funnel has passed on (rolled
	// back with a failed staged unit, so it tracks what will actually
	// be delivered); firstEmitSet guards the FirstTuple stamp.
	stopAfter    int64
	streamSink   StreamSink
	emitted      int64
	firstEmitSet bool
}

// emit is the single emission funnel: every method delivers output
// pairs through it, never straight to e.sink, so the run can count
// pairs for the StopAfter cut-off (and roll the count back with a
// failed staged unit).
func (e *env) emit(p *sim.Proc, r, s block.Tuple) {
	if e.stopAfter > 0 && e.emitted >= e.stopAfter {
		// The cut-off is exact: a probe batch that keeps matching past
		// the cap delivers nothing beyond it, and the next checkStop
		// poll unwinds the run. Delivered output is min(n, |R ⋈ S|).
		return
	}
	switch {
	case e.rew != nil:
		// Live into a rewindable sink; Exec stamps FirstTuple at commit.
		e.sink.Emit(p, r, s)
	case e.staging:
		e.log.emit(r, s)
	default:
		e.deliver(p, r, s)
	}
	e.emitted++
}

// deliver hands one pair to the caller's sink — live from emit or
// replayed from the staging log — and stamps Stats.FirstTuple on the
// first. Staged runs therefore report the commit time, streaming runs
// the live emission time: honest delivery either way.
func (e *env) deliver(p *sim.Proc, r, s block.Tuple) {
	if !e.firstEmitSet {
		e.firstEmitSet = true
		e.stats.FirstTuple = sim.Duration(p.Now() - e.t0)
	}
	e.sink.Emit(p, r, s)
}

// ErrStopped is the internal control signal for a satisfied run: a
// method returns it (via checkStop) when the output cut-off is reached,
// every layer unwinds cleanly — pipelines drain, scratch frees — and
// Exec converts it into a successful result with Stats.Stopped set. It
// never escapes the package as an error.
var ErrStopped = errors.New("join: output satisfied; stopped early")

// checkStop is polled at emission points and before device reads. It
// returns ErrStopped when the run's output cut-off has been reached.
func (e *env) checkStop() error {
	if e.stopAfter > 0 && e.emitted >= e.stopAfter {
		return ErrStopped
	}
	if e.streamSink != nil && e.streamSink.Satisfied() {
		return ErrStopped
	}
	return nil
}

// newDoubleBuffer builds the configured double-buffer discipline over
// capacity blocks and records it for the result trace.
func (e *env) newDoubleBuffer(name string, capacity int64) buffer.DoubleBuffer {
	var b buffer.DoubleBuffer
	if e.res.Discipline == SplitHalves {
		b = buffer.NewSplit(e.k, name, capacity)
	} else {
		b = buffer.NewInterleaved(e.k, name, capacity)
	}
	b.SetMetrics(e.res.Metrics)
	e.dbuf = b
	e.dbufCap = capacity
	return b
}

// span opens a phase span on p; a no-op returning nil when no tracker
// is attached.
func (e *env) span(p *sim.Proc, name string, attrs ...obs.Attr) *obs.Span {
	return e.res.Spans.Begin(p, name, attrs...)
}

// markStepI records the end of the setup phase, relative to the
// run's start.
func (e *env) markStepI(p *sim.Proc) {
	e.stats.StepI = sim.Duration(p.Now() - e.t0)
}

// Run executes method m on spec with the given resources, returning
// the measured result. The sink receives every output tuple pair; a
// nil sink counts matches only. Run is the single-join entry point: it
// builds a one-shot Session, executes the join, and drains the kernel.
func Run(m Method, spec Spec, res Resources, sink Sink) (*Result, error) {
	return RunWith(m, spec, res, sink, ExecOptions{})
}

// RunWith is Run with execution options — the one-shot entry point for
// streaming runs (ExecOptions.StopAfter, StreamSink early termination).
func RunWith(m Method, spec Spec, res Resources, sink Sink, opts ExecOptions) (*Result, error) {
	s, err := NewSession(res)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var result *Result
	var runErr error
	s.k.Spawn("join:"+m.Symbol(), func(p *sim.Proc) {
		result, runErr = s.Exec(p, m, spec, sink, opts)
	})
	wall0 := time.Now()
	if err := s.k.Run(); err != nil {
		return nil, fmt.Errorf("%s: simulation: %w", m.Symbol(), err)
	}
	wallElapsed := time.Since(wall0)
	s.Finish()
	if runErr != nil {
		return nil, runErr
	}
	// On a real-I/O backend, report the honest wall-clock figures next
	// to the virtual ones: how long the run actually took, and how much
	// of the devices' OS time overlapped.
	if ws, ok := s.res.Backend.(device.WallStatser); ok {
		result.Stats.WallElapsed = wallElapsed
		result.Stats.WallOverlap = ws.WallStats().Overlap()
		ws.PublishWallMetrics(s.res.Metrics)
	}
	return result, nil
}

// Methods returns the seven join methods in the paper's presentation
// order.
func Methods() []Method {
	return []Method{
		DTNB{}, CDTNBMB{}, CDTNBDB{}, DTGH{}, CDTGH{}, CTTGH{}, TTGH{},
	}
}

// AllMethods returns the paper's seven methods plus the sort-merge
// baseline and the symmetric streaming hash join.
func AllMethods() []Method {
	return append(Methods(), TTSM{}, SymHash{})
}

// BySymbol returns the method with the given abbreviation
// (case-sensitive, e.g. "CDT-NB/DB"); the paper's seven plus the
// "TT-SM" baseline and the streaming "SYM-H".
func BySymbol(symbol string) (Method, error) {
	for _, m := range AllMethods() {
		if m.Symbol() == symbol {
			return m, nil
		}
	}
	return nil, fmt.Errorf("join: unknown method %q", symbol)
}

// Choose picks the method to run spec on res when the caller names
// none. A prefix query (stopAfter > 0) gets SYM-H when it fits: the
// cost model ranks whole-run response and would never pick a streaming
// method, yet for a prefix time-to-first-tuple is what matters.
// Otherwise Choose returns Rank's first method, or nil when none fits.
func Choose(spec Spec, res Resources, stopAfter int64) Method {
	if stopAfter > 0 && Check(SymHash{}, spec, res) == nil {
		return SymHash{}
	}
	if best := rankSpec(Methods(), spec, res)[0]; best.Est.Err == nil {
		return best.Method
	}
	return nil
}

// rankSpec is Rank for spec's relations and cartridges.
func rankSpec(cands []Method, spec Spec, res Resources) []Ranked {
	return Rank(cands, spec.R.Region.N, spec.S.Region.N, res,
		Tapes{R: spec.R.Media.Free(), S: spec.S.Media.Free()})
}
