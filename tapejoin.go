// Package tapejoin joins relations stored on magnetic tape, directly
// on the tertiary devices, reproducing Myllymaki & Livny, "Relational
// Joins for Data on Tertiary Storage" (ICDE 1997; UW-Madison TR
// #1331).
//
// The package wraps a simulated device complex — two tape drives, a
// disk array and a memory budget — and seven join methods:
//
//	DT-NB      Disk-Tape Nested Block Join (sequential)
//	CDT-NB/MB  Concurrent DT-NB, memory double-buffering
//	CDT-NB/DB  Concurrent DT-NB, disk double-buffering
//	DT-GH      Disk-Tape Grace Hash Join (sequential)
//	CDT-GH     Concurrent DT-GH, parallel tape/disk I/O
//	CTT-GH     Concurrent Tape-Tape Grace Hash Join
//	TT-GH      Tape-Tape Grace Hash Join (sequential)
//
// Joins move real tuple data and produce verified output; response
// times come from a deterministic discrete-event simulation calibrated
// to the paper's Quantum DLT-4000 / Fast-SCSI-2 platform. An
// analytical cost model (Estimate, Advise) predicts response times and
// picks the cheapest feasible method for a resource configuration.
//
// Sizes follow the paper's convention: megabytes, with one paper block
// = 64 KB (so 1 MB = 16 blocks).
package tapejoin

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/device/filedev"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/obs/obsserver"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/tape"
)

// BlocksPerMB converts the paper's megabyte units to paper blocks.
const BlocksPerMB = 1024 * 1024 / block.VirtualSize

// MB converts megabytes to blocks.
func MB(megabytes int64) int64 { return megabytes * BlocksPerMB }

// MBf converts fractional megabytes to blocks, rounding to nearest.
func MBf(megabytes float64) int64 { return int64(megabytes*BlocksPerMB + 0.5) }

// Method identifies a join method by the paper's abbreviation.
type Method string

// The seven methods of the paper.
const (
	DTNB    Method = "DT-NB"
	CDTNBMB Method = "CDT-NB/MB"
	CDTNBDB Method = "CDT-NB/DB"
	DTGH    Method = "DT-GH"
	CDTGH   Method = "CDT-GH"
	CTTGH   Method = "CTT-GH"
	TTGH    Method = "TT-GH"
)

// TTSM is the tape sort-merge join baseline — the classical
// alternative (Knuth's tape sorting) the paper's hashing methods
// displace. Not part of the paper's seven; runnable for comparison.
const TTSM Method = "TT-SM"

// SYMH is the symmetric streaming hash join: both relations stream
// concurrently and matches are emitted as they are discovered, so the
// first output pair arrives while the materializing methods are still
// staging R. Not part of the paper's seven; it is the method of choice
// for JoinOptions.StopAfter / QuerySpec.StopAfter early termination.
const SYMH Method = "SYM-H"

// Methods lists all seven methods in the paper's order.
func Methods() []Method {
	return []Method{DTNB, CDTNBMB, CDTNBDB, DTGH, CDTGH, CTTGH, TTGH}
}

// TapeProfile selects the tape drive performance model.
type TapeProfile int

const (
	// DLT4000 is the calibrated profile of the paper's platform:
	// seeks, start/stop penalties, and a sustained rate that
	// reproduces Table 3's bare-read times at 25% compressibility.
	DLT4000 TapeProfile = iota
	// IdealTape is the paper's simplified cost model: pure transfer
	// cost, no seeks or repositioning.
	IdealTape
)

// Compression mirrors Section 9's three dataset compressibilities,
// which change the tape drive's effective rate.
type Compression int

const (
	// Compress25 is the paper's base case (25% compressible data).
	Compress25 Compression = iota
	// Compress0 models incompressible data: a slower tape drive.
	Compress0
	// Compress50 models highly compressible data: a faster drive.
	Compress50
)

func (c Compression) factor() float64 {
	switch c {
	case Compress0:
		return 1.0
	case Compress50:
		return 2.0
	default:
		return 1.33
	}
}

// Config sizes the device complex, in the paper's units.
type Config struct {
	// Backend selects the storage backend: "sim" (default) runs the
	// deterministic virtual-time simulator; "file" maps cartridges and
	// disk scratch to real OS files and reports honest wall-clock
	// transfer timing.
	Backend string
	// BackendDir is the scratch directory for the "file" backend
	// (default: the OS temp directory).
	BackendDir string
	// FileSync selects the "file" backend's fsync policy: "interval"
	// (default: flush every few MiB written), "none", or "always".
	FileSync string
	// FileOpTimeout, when positive, bounds each "file" backend device
	// operation's wall-clock time: an operation that overruns fails
	// with fault.ErrTimeout, degrades the device's health, and three
	// consecutive misses trip its circuit breaker — further operations
	// then fail fast with fault.ErrDeviceFailed. Zero disables
	// deadlines (operations may block indefinitely on a stuck syscall).
	FileOpTimeout time.Duration
	// FilePace, when positive, paces the "file" backend's transfers to
	// emulate the modeled device bandwidths sped up FilePace× in
	// wall-clock time. Local files run at page-cache speed, so without
	// pacing every transfer is a near-instant memcpy and overlap is
	// unmeasurable; with it the concurrent methods' real elapsed-time
	// advantage shows on any machine. Zero (the default) disables
	// pacing: transfers take only the time the OS takes.
	FilePace float64
	// MemoryMB is M, main memory allocated to the join. Fractional
	// megabytes are honored at block (64 KB) granularity.
	MemoryMB float64
	// DiskMB is D, total disk scratch space. Fractional megabytes are
	// honored at block granularity.
	DiskMB float64
	// NumDisks is n (default 2, the paper's platform).
	NumDisks int
	// Profile selects the tape model (default DLT4000).
	Profile TapeProfile
	// Compression selects the dataset compressibility (default 25%).
	Compression Compression
	// DiskTapeSpeedRatio is X_D / X_T (default 2, the paper's
	// Section 5.3 assumption). The disk rate scales with the tape
	// rate chosen by Profile and Compression. Join output is
	// pipelined to a downstream consumer at no I/O cost; to store it
	// on local disk instead, Section 3.2 folds the output's share of
	// disk bandwidth into a reduced X_D — lower the ratio by that
	// share.
	DiskTapeSpeedRatio float64
	// SplitBuffering replaces the paper's interleaved
	// double-buffering with the naive two-halves scheme (ablation).
	SplitBuffering bool
	// SkewAware enables skew-aware partitioning in the Grace Hash
	// methods: a top-k key-frequency sketch rides R's partitioning
	// pass, heavy hitters get dedicated partitions, and overweight
	// buckets are split so no partition exceeds one memory load.
	// Uniform inputs are unaffected (the plan stays trivial). Also
	// steers Estimate/Advise: the cost model then assumes the skew
	// penalty is absorbed.
	SkewAware bool
	// ProbeNarrow enables CDF-model probe-range narrowing in the
	// TT-SM merge join: each sorted run keeps a per-block first-key
	// fence index, and the trailing stream jumps over provably
	// matchless stretches instead of scanning them.
	ProbeNarrow bool
	// BiDirectionalTape enables the optional SCSI READ REVERSE of the
	// paper's footnote 2: CTT-GH then alternates its bucket-scan
	// direction each iteration, eliminating the seek back across the
	// hashed R run.
	BiDirectionalTape bool
	// Observe enables the structured observability layer: phase spans,
	// every device I/O event, a metrics registry, and trace export.
	// Join then attaches a Result.Report with per-phase critical-path
	// analysis, the device timeline and Chrome-trace / JSONL /
	// Prometheus exporters.
	Observe bool
	// Faults injects a deterministic fault schedule into the devices of
	// every Join, in the internal/fault spec grammar, e.g.
	// "transient=R:100:2,diskfail=1@40s,random=7:3". Each Join parses a
	// fresh schedule, so runs stay independent and reproducible. See
	// the fault.Parse documentation for the full grammar.
	Faults string
	// DisableRecovery turns off retry/checkpoint/degrade handling: the
	// first device fault aborts the join.
	DisableRecovery bool
	// ObsAddr, when non-empty, starts a live-telemetry HTTP server on
	// the address (host:port; ":0" binds an ephemeral port — read the
	// bound address from System.ObsAddr). The server serves /metrics
	// (Prometheus text), /health (per-device health), /flight (flight-
	// recorder JSONL) and /debug/pprof, and can be scraped while a run
	// is in flight. Implies Observe. Close the system to stop it.
	ObsAddr string
	// ObsServer, when non-nil, attaches the system to an existing obs
	// server instead of starting one: the system points the server's
	// sources at each run's registry and its flight recorder. The
	// caller owns the server's lifecycle. Implies Observe.
	ObsServer *obsserver.Server

	// fileTripAfter overrides the consecutive-timeout count that trips
	// a "file" backend device's breaker (three when zero); a test hook.
	fileTripAfter int
}

// System is a configured tertiary-storage device complex on which
// relations are created and joined.
type System struct {
	cfg      Config
	res      join.Resources
	tapeRate float64
	nextTag  byte

	flight *obs.FlightRecorder
	obs    *obsserver.Server
	ownObs bool // we started the server; Close stops it

	closeOnce sync.Once
	closeErr  error
}

// NewSystem validates the configuration and builds a system.
func NewSystem(cfg Config) (*System, error) {
	if MBf(cfg.MemoryMB) < 2 {
		return nil, fmt.Errorf("tapejoin: MemoryMB = %v (need at least 2 blocks)", cfg.MemoryMB)
	}
	if MBf(cfg.DiskMB) < 1 {
		return nil, fmt.Errorf("tapejoin: DiskMB = %v", cfg.DiskMB)
	}
	// Resource defaulting is owned by join.Resources.WithDefaults —
	// the facade only rejects invalid values and leaves zero fields
	// for the single source of truth to fill, so a new resource knob
	// cannot drift between the two layers.
	if cfg.NumDisks < 0 {
		return nil, fmt.Errorf("tapejoin: NumDisks = %d", cfg.NumDisks)
	}
	if cfg.DiskTapeSpeedRatio < 0 {
		return nil, errors.New("tapejoin: DiskTapeSpeedRatio must be positive")
	}
	ratio := cfg.DiskTapeSpeedRatio
	if ratio == 0 {
		ratio = join.DefaultDiskTapeSpeedRatio
	}

	var tc tape.DriveConfig
	if cfg.Profile == IdealTape {
		tc = tape.Ideal()
	} else {
		tc = tape.DLT4000()
	}
	// The disks are fixed hardware: their rate is anchored to the
	// base-case (25% compressible) tape rate, so changing Compression
	// moves only the tape speed — Section 9's experiment.
	baseTapeRate := tc.EffectiveRate()
	tc.CompressionFactor = cfg.Compression.factor()
	tc.BiDirectional = cfg.BiDirectionalTape

	res := join.Resources{
		MemoryBlocks: MBf(cfg.MemoryMB),
		DiskBlocks:   MBf(cfg.DiskMB),
		NumDisks:     cfg.NumDisks,
		DiskRate:     ratio * baseTapeRate,
		Tape:         tc,
	}
	switch cfg.Backend {
	case "", "sim":
		// Leave res.Backend nil: WithDefaults fills the simulator.
	case "file":
		fb := filedev.New(cfg.BackendDir)
		pol, err := filedev.ParseSyncPolicy(cfg.FileSync)
		if err != nil {
			return nil, fmt.Errorf("tapejoin: %w", err)
		}
		fb.Sync = pol
		fb.PaceScale = cfg.FilePace
		fb.OpTimeout = cfg.FileOpTimeout
		fb.TripAfter = cfg.fileTripAfter
		if cfg.DisableRecovery {
			// The device layer's retry of a failed syscall is recovery
			// too: with it on, the first fault would not abort the join.
			fb.RetryMax = -1
		}
		res.Backend = fb
	default:
		return nil, fmt.Errorf("tapejoin: unknown backend %q (want \"sim\" or \"file\")", cfg.Backend)
	}
	if cfg.Profile == IdealTape {
		res.DiskOverhead = time.Nanosecond // effectively zero, skips the default
	}
	if cfg.SplitBuffering {
		res.Discipline = join.SplitHalves
	}
	res.SkewAware = cfg.SkewAware
	res.ProbeNarrow = cfg.ProbeNarrow
	if cfg.ObsAddr != "" || cfg.ObsServer != nil {
		cfg.Observe = true // live endpoints need a registry to scrape
	}
	// The flight recorder is always on: it is the black box every run
	// writes regardless of whether anyone is watching.
	flight := obs.NewFlightRecorder(0)
	if fb, ok := res.Backend.(*filedev.Backend); ok {
		fb.Flight = flight
	}
	res.Flight = flight
	res = res.WithDefaults()
	// Reflect the resolved defaults back into the public config.
	cfg.NumDisks = res.NumDisks
	cfg.DiskTapeSpeedRatio = ratio
	cfg.Backend = res.Backend.Name()
	sys := &System{cfg: cfg, res: res, tapeRate: tc.EffectiveRate(), flight: flight}
	if cfg.ObsServer != nil {
		sys.obs = cfg.ObsServer
	} else if cfg.ObsAddr != "" {
		sys.obs = obsserver.New()
		sys.ownObs = true
		if _, err := sys.obs.Start(cfg.ObsAddr); err != nil {
			return nil, fmt.Errorf("tapejoin: %w", err)
		}
	}
	if sys.obs != nil {
		sys.obs.SetSources(nil, flight, sys.healthSource())
	}
	return sys, nil
}

// healthSource adapts the backend's live device-health reporting for
// the obs server, or nil when the backend has none (the simulator).
func (s *System) healthSource() obsserver.HealthSource {
	hr, ok := s.res.Backend.(device.HealthReporter)
	if !ok {
		return nil
	}
	return func() []obsserver.DeviceHealth {
		rows := hr.DeviceHealths()
		out := make([]obsserver.DeviceHealth, 0, len(rows))
		for _, r := range rows {
			out = append(out, obsserver.DeviceHealth{
				Device: r.Device, State: r.State.String(),
				Timeouts: r.Timeouts, Retries: r.Retries,
			})
		}
		return out
	}
}

// ObsAddr returns the live-telemetry server's bound address, or ""
// when the system has none.
func (s *System) ObsAddr() string {
	if s.obs == nil {
		return ""
	}
	return s.obs.Addr()
}

// Close releases system-owned resources: the obs server, when the
// system started one (an attached Config.ObsServer stays up — its
// owner closes it). Idempotent and safe to call concurrently, even
// while a scrape is in flight: the first call tears the server down
// and records the outcome, every later call returns the same error.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		if s.obs != nil && s.ownObs {
			s.closeErr = s.obs.Close()
		}
	})
	return s.closeErr
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// BareReadTime returns the time to stream the given volume from one
// tape drive — the paper's baseline: Table 3's "Read S + R" column and
// the "optimum join time" of Section 9.
func (s *System) BareReadTime(megabytes float64) time.Duration {
	bytes := megabytes * 1024 * 1024
	return time.Duration(bytes / s.tapeRate * float64(time.Second))
}

// Tape is a tape cartridge — or a robot-managed set of cartridges
// presenting one linear space — managed by the system.
type Tape struct {
	media tape.Medium
}

// NewTape creates an empty cartridge with the given capacity.
// Tape-tape join methods need scratch space beyond the relations
// themselves (Table 2): CTT-GH needs |R| free on R's cartridge, TT-GH
// needs |S| free on R's cartridge and |R| free on S's.
func (s *System) NewTape(name string, capacityMB int64) (*Tape, error) {
	if capacityMB < 1 {
		return nil, fmt.Errorf("tapejoin: tape %q capacity %d MB", name, capacityMB)
	}
	return &Tape{media: tape.NewMedia(name, MB(capacityMB))}, nil
}

// NewTapeSet creates a volume set of `volumes` cartridges of
// perVolumeMB each behind a media robot. Requests crossing a
// cartridge boundary cost a media exchange (~30 s on the DLT-4000
// profile) — Section 3.2 argues, and BenchmarkAblationMultiVolume
// confirms, that this is negligible against sequential scan times.
func (s *System) NewTapeSet(name string, volumes int, perVolumeMB int64) (*Tape, error) {
	if volumes < 1 || perVolumeMB < 1 {
		return nil, fmt.Errorf("tapejoin: tape set %q: %d volumes of %d MB", name, volumes, perVolumeMB)
	}
	vols := make([]*tape.Media, volumes)
	for i := range vols {
		vols[i] = tape.NewMedia(fmt.Sprintf("%s/vol%d", name, i), MB(perVolumeMB))
	}
	mv, err := tape.NewMultiVolume(name, vols...)
	if err != nil {
		return nil, err
	}
	return &Tape{media: mv}, nil
}

// FreeMB returns the cartridge's remaining scratch space.
func (t *Tape) FreeMB() int64 { return t.media.Free() / BlocksPerMB }

// RelationConfig describes a synthetic relation to generate onto tape.
type RelationConfig struct {
	// Name identifies the relation.
	Name string
	// SizeMB is the relation size (the paper's |R| or |S|).
	SizeMB int64
	// TuplesPerBlock is the real-data density per 64 KB paper block
	// (default 4). Density does not affect timing.
	TuplesPerBlock int
	// KeySpace draws join keys uniformly from [0, KeySpace); smaller
	// spaces give more matches (default 1e6).
	KeySpace uint64
	// HotFraction and HotProb skew the key distribution with the
	// crude two-level hot/cold model (optional; set both or neither).
	HotFraction, HotProb float64
	// ZipfTheta draws keys from a Zipf(θ) rank-frequency distribution
	// over the key space, 0 <= θ < 1 (0 = uniform). Mutually
	// exclusive with HotFraction/HotProb.
	ZipfTheta float64
	// Seed makes generation reproducible.
	Seed int64
}

// Relation is a synthetic relation materialized on a cartridge.
type Relation struct {
	rel *relation.Relation
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.rel.Name }

// SizeMB returns the relation size.
func (r *Relation) SizeMB() int64 { return r.rel.Region.N / BlocksPerMB }

// Blocks returns the relation size in paper blocks.
func (r *Relation) Blocks() int64 { return r.rel.Region.N }

// Tuples returns the tuple count.
func (r *Relation) Tuples() int64 { return r.rel.Tuples() }

// CreateRelation generates a synthetic relation and writes it to the
// cartridge (outside simulated time; input tapes exist before a join
// is measured).
func (s *System) CreateRelation(t *Tape, cfg RelationConfig) (*Relation, error) {
	if cfg.TuplesPerBlock == 0 {
		cfg.TuplesPerBlock = 4
	}
	if cfg.KeySpace == 0 {
		cfg.KeySpace = 1_000_000
	}
	s.nextTag++
	rel, err := relation.WriteToTape(relation.Config{
		Name:           cfg.Name,
		Tag:            s.nextTag,
		Blocks:         MB(cfg.SizeMB),
		TuplesPerBlock: cfg.TuplesPerBlock,
		KeySpace:       cfg.KeySpace,
		HotFraction:    cfg.HotFraction,
		HotProb:        cfg.HotProb,
		ZipfTheta:      cfg.ZipfTheta,
		PayloadBytes:   8,
		Seed:           cfg.Seed,
	}, t.media)
	if err != nil {
		return nil, err
	}
	return &Relation{rel: rel}, nil
}

// ExpectedMatches returns the exact equi-join cardinality of r ⋈ s,
// computed analytically from the generators.
func ExpectedMatches(r, s *Relation) int64 {
	return relation.ExpectedMatches(r.rel, s.rel)
}

// UtilizationSample is one point of the disk-buffer utilization trace
// (the paper's Figure 4).
type UtilizationSample struct {
	// Seconds is the virtual time of the sample.
	Seconds float64
	// EvenMB and OddMB are the space held by even- and odd-numbered
	// iterations.
	EvenMB, OddMB float64
}

// Stats reports what a join did and what it cost.
type Stats struct {
	// Response is the join's virtual response time.
	Response time.Duration
	// StepI is when the setup phase finished.
	StepI time.Duration
	// Iterations counts Step II iterations.
	Iterations int
	// RScans counts full passes over R's data.
	RScans int
	// Matches is the output cardinality.
	Matches int64
	// OutputHash is an order-independent digest of the emitted pairs
	// (keys and payload bytes): two runs over the same inputs must
	// report equal hashes regardless of method, backend or injected
	// faults — the end-to-end integrity oracle.
	OutputHash uint64
	// TapeReadMB, TapeWrittenMB aggregate both drives.
	TapeReadMB, TapeWrittenMB float64
	// DiskReadMB, DiskWrittenMB aggregate the array.
	DiskReadMB, DiskWrittenMB float64
	// DiskPeakMB is the peak disk footprint (Figure 6).
	DiskPeakMB float64
	// MemPeakMB is the peak accounted memory.
	MemPeakMB float64
	// TapeSeeks counts head repositionings.
	TapeSeeks int64
	// TapeRUtil, TapeSUtil and DiskUtil report each device's busy
	// fraction of the response time.
	TapeRUtil, TapeSUtil, DiskUtil float64
	// Fault-recovery accounting (zero on fault-free runs): Faults
	// counts injected faults hit, Retries the re-read attempts,
	// UnitRestarts the restarted work units, and RecoveryTime the
	// virtual time spent in retry backoff (already part of Response).
	Faults       int64
	Retries      int64
	UnitRestarts int64
	RecoveryTime time.Duration
	// DisksLost counts permanently failed disk drives. DriveLost
	// reports a permanent tape-drive failure; DegradedTo then names the
	// sequential method the join re-planned to on the surviving drive.
	DisksLost  int
	DriveLost  bool
	DegradedTo string
	// HeavyHitters and SkewPartitions report the skew-aware planner's
	// work (Config.SkewAware): keys isolated into dedicated
	// partitions, and the refined partition count (> the uniform
	// bucket count only when skew was detected).
	HeavyHitters   int
	SkewPartitions int
	// ProbeJumps and ProbeSkippedBlocks report the merge join's
	// CDF-model narrowing (Config.ProbeNarrow): forward jumps taken
	// by a trailing stream and the blocks they skipped.
	ProbeJumps         int64
	ProbeSkippedBlocks int64
	// FirstTuple is the virtual time from run start to the first pair
	// delivered to the output (zero when the join produced none).
	FirstTuple time.Duration
	// Stopped reports that the join terminated early because
	// JoinOptions.StopAfter was reached rather than by exhausting its
	// inputs; Matches and OutputHash then cover the delivered prefix.
	Stopped bool
	// WallElapsed is the real elapsed time of the run and WallOverlap
	// the fraction of wall-clock device busy time that overlapped
	// across devices. Both are zero on the "sim" backend; on the
	// "file" backend they are measured, not simulated, and vary run
	// to run.
	WallElapsed time.Duration
	WallOverlap float64
}

// DiskTrafficMB is the paper's Figure 7 metric.
func (s Stats) DiskTrafficMB() float64 { return s.DiskReadMB + s.DiskWrittenMB }

// Result is the outcome of a join.
type Result struct {
	Method Method
	Stats  Stats
	// BufferTrace samples the shared disk buffer's per-parity usage
	// for methods that double-buffer S through disk (Figure 4).
	BufferTrace []UtilizationSample
	// BufferCapacityMB is the traced buffer's size.
	BufferCapacityMB float64
	// Report carries the structured observability data when the system
	// was configured with Observe: per-phase critical-path analysis
	// plus Chrome-trace, JSONL and metrics exporters.
	Report *Report
	// Sample holds the first JoinOptions.Sample output pairs.
	Sample []SampledPair
}

func mbOf(blocks int64) float64 { return float64(blocks) / BlocksPerMB }

// JoinOptions are per-join execution options for JoinWith.
type JoinOptions struct {
	// StopAfter, when positive, terminates the join after n output
	// pairs: the join stops reading the tapes, unwinds its pipelines,
	// and returns with Stats.Stopped set. The delivered pairs are a
	// prefix of some complete run's output (a sub-multiset of the full
	// result). Distinct from QuerySpec.Limit, which only caps
	// materialized rows while the join runs to completion.
	StopAfter int64
	// Sample captures the first n output pairs into Result.Sample.
	// Presentation-only, like QuerySpec.Limit: the join still runs to
	// completion (unless StopAfter also ends it) and Stats.Matches
	// stays exact.
	Sample int
}

// SampledPair is one captured output pair (join keys only).
type SampledPair struct {
	RKey, SKey uint64
}

// sampleSink counts and digests like CountSink and additionally keeps
// the first cap pairs for presentation.
type sampleSink struct {
	join.CountSink
	cap   int
	pairs []SampledPair
}

// sampleMark is a sampleSink's state: its counts and how many pairs it
// has sampled.
type sampleMark struct {
	count   join.CountSink
	sampled int
}

// Mark implements join.Rewinder. It shadows CountSink's promoted Mark,
// which would not cover the sample.
func (s *sampleSink) Mark() any { return sampleMark{s.CountSink, len(s.pairs)} }

// Rewind implements join.Rewinder, dropping the pairs sampled since m.
func (s *sampleSink) Rewind(m any) {
	mk := m.(sampleMark)
	s.CountSink, s.pairs = mk.count, s.pairs[:mk.sampled]
}

// Emit implements join.Sink.
func (s *sampleSink) Emit(p *sim.Proc, r, t block.Tuple) {
	s.CountSink.Emit(p, r, t)
	if len(s.pairs) < s.cap {
		s.pairs = append(s.pairs, SampledPair{RKey: r.Key, SKey: t.Key})
	}
}

// Join runs the given method over r (the smaller relation) and s,
// returning measured statistics. The relations must live on distinct
// cartridges.
func (s *System) Join(method Method, r, bigS *Relation) (*Result, error) {
	return s.JoinWith(method, r, bigS, JoinOptions{})
}

// JoinWith is Join with per-run execution options.
func (s *System) JoinWith(method Method, r, bigS *Relation, opts JoinOptions) (*Result, error) {
	m, err := join.BySymbol(string(method))
	if err != nil {
		return nil, err
	}
	runRes, err := s.runResources(s.runObs())
	if err != nil {
		return nil, err
	}
	var sink interface {
		join.Sink
		join.Hasher
	} = &join.CountSink{}
	var sampler *sampleSink
	if opts.Sample > 0 {
		sampler = &sampleSink{cap: opts.Sample}
		sink = sampler
	}
	res, err := join.RunWith(m, join.Spec{R: r.rel, S: bigS.rel}, runRes, sink,
		join.ExecOptions{StopAfter: opts.StopAfter})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Method: method,
		Stats: Stats{
			Response:           res.Stats.Response,
			StepI:              res.Stats.StepI,
			Iterations:         res.Stats.Iterations,
			RScans:             res.Stats.RScans,
			Matches:            res.Stats.OutputTuples,
			OutputHash:         sink.Hash(),
			TapeReadMB:         mbOf(res.Stats.TapeBlocksRead),
			TapeWrittenMB:      mbOf(res.Stats.TapeBlocksWritten),
			DiskReadMB:         mbOf(res.Stats.DiskBlocksRead),
			DiskWrittenMB:      mbOf(res.Stats.DiskBlocksWritten),
			DiskPeakMB:         mbOf(res.Stats.DiskHighWater),
			MemPeakMB:          mbOf(res.Stats.MemHighWater),
			TapeSeeks:          res.Stats.TapeSeeks,
			TapeRUtil:          float64(res.Stats.TapeRBusy) / float64(res.Stats.Response),
			TapeSUtil:          float64(res.Stats.TapeSBusy) / float64(res.Stats.Response),
			DiskUtil:           float64(res.Stats.DiskBusy) / float64(res.Stats.Response),
			Faults:             res.Stats.Faults,
			Retries:            res.Stats.Retries,
			UnitRestarts:       res.Stats.UnitRestarts,
			RecoveryTime:       time.Duration(res.Stats.RecoveryTime),
			DisksLost:          res.Stats.DisksLost,
			DriveLost:          res.Stats.DriveLost,
			DegradedTo:         res.Stats.DegradedTo,
			HeavyHitters:       res.Stats.HeavyHitters,
			SkewPartitions:     res.Stats.SkewPartitions,
			ProbeJumps:         res.Stats.ProbeJumps,
			ProbeSkippedBlocks: res.Stats.ProbeSkippedBlocks,
			FirstTuple:         time.Duration(res.Stats.FirstTuple),
			Stopped:            res.Stats.Stopped,
			WallElapsed:        time.Duration(res.Stats.WallElapsed),
			WallOverlap:        res.Stats.WallOverlap,
		},
		BufferCapacityMB: mbOf(res.BufferCapacity),
	}
	if sampler != nil {
		out.Sample = sampler.pairs
	}
	for _, smp := range res.BufferTrace {
		out.BufferTrace = append(out.BufferTrace, UtilizationSample{
			Seconds: smp.T.Seconds(),
			EvenMB:  mbOf(smp.Even),
			OddMB:   mbOf(smp.Odd),
		})
	}
	out.Report = s.runReport(runRes, sim.Time(res.Stats.Response))
	return out, nil
}

// runObs returns a fresh tracker and registry when the system
// observes its runs; nil otherwise.
func (s *System) runObs() (*obs.Tracker, *obs.Registry) {
	if !s.cfg.Observe {
		return nil, nil
	}
	return obs.NewTracker(), obs.NewRegistry()
}

// runResources returns the system's resources set up for one run
// recording into tracker and reg (either may be nil): the live obs
// endpoints pointed at reg so a mid-run scrape sees the numbers
// accumulate, the recovery switch, and a freshly parsed fault
// schedule — a fault.Schedule counts its rules down as they fire, so
// no two runs can share one.
func (s *System) runResources(tracker *obs.Tracker, reg *obs.Registry) (join.Resources, error) {
	res := s.res
	res.Spans = tracker
	res.Metrics = reg
	if s.obs != nil {
		s.obs.SetSources(reg, s.flight, s.healthSource())
	}
	if s.cfg.Faults != "" {
		sched, err := fault.Parse(s.cfg.Faults)
		if err != nil {
			return res, fmt.Errorf("tapejoin: %w", err)
		}
		res.Faults = sched
	}
	res.DisableRecovery = s.cfg.DisableRecovery
	return res, nil
}

// runReport renders a finished run of length end from the tracker and
// registry in res, or returns nil when the system does not Observe.
func (s *System) runReport(res join.Resources, end sim.Time) *Report {
	if !s.cfg.Observe {
		return nil
	}
	return newReport(res.Spans, res.Metrics, end)
}

// CheckFeasible reports whether the method can run r ⋈ s on this
// system: whether its footprint (the paper's Table 2 row) fits M, D
// and the cartridges' free space.
func (s *System) CheckFeasible(method Method, r, bigS *Relation) error {
	m, err := join.BySymbol(string(method))
	if err != nil {
		return err
	}
	return join.Check(m, join.Spec{R: r.rel, S: bigS.rel}, s.res)
}

// Estimate predicts a method's response time for relation sizes in MB
// using the paper's analytical cost model (no simulation).
type Estimate struct {
	Method Method
	// Response is the predicted response time; infeasible methods
	// report Feasible = false.
	Response time.Duration
	StepI    time.Duration
	Feasible bool
	// Reason explains infeasibility.
	Reason string
	// RelativeCost is response / bare S read time (Figures 1–3).
	RelativeCost float64
}

// estimates ranks methods for |R| = rMB, |S| = sMB on this system's
// resources with free tape scratch.
func (s *System) estimates(methods []join.Method, rMB, sMB int64, free join.Tapes) []Estimate {
	p := cost.Params{SBlocks: MB(sMB), TapeRate: s.tapeRate}
	var out []Estimate
	for _, r := range join.Rank(methods, MB(rMB), MB(sMB), s.res, free) {
		e := Estimate{Method: Method(r.Est.Method), Feasible: r.Est.Err == nil}
		if e.Feasible {
			e.Response = time.Duration(r.Est.Seconds * float64(time.Second))
			e.StepI = time.Duration(r.Est.StepISeconds * float64(time.Second))
			e.RelativeCost = r.Est.Relative(p)
		} else {
			e.Reason = r.Est.Err.Error()
		}
		out = append(out, e)
	}
	return out
}

// Estimate predicts one method's cost for |R| = rMB, |S| = sMB, with
// tape scratch unbounded. A method whose footprint does not fit M and
// D, or that the model cannot price (SYM-H), reports Feasible = false.
func (s *System) Estimate(method Method, rMB, sMB int64) Estimate {
	m, err := join.BySymbol(string(method))
	if err != nil {
		return Estimate{Method: method, Reason: err.Error()}
	}
	return s.estimates([]join.Method{m}, rMB, sMB, join.AnyTapes)[0]
}

// Advise ranks all methods for |R| = rMB, |S| = sMB given the
// available tape scratch space: the methods whose footprint fits, the
// cheapest first, then the rest with their reasons. It codifies the
// paper's conclusions: CTT-GH for very large joins, CDT-GH with ample
// disk but little memory, CDT-NB when most of R fits in memory.
func (s *System) Advise(rMB, sMB, rTapeScratchMB, sTapeScratchMB int64) []Estimate {
	return s.estimates(join.Methods(), rMB, sMB, join.Tapes{R: MB(rTapeScratchMB), S: MB(sTapeScratchMB)})
}
