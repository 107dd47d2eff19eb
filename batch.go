package tapejoin

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// BatchPolicy selects how a batch of joins is scheduled over the
// shared drives: "fifo", "mount-aware" or "shared-scan".
type BatchPolicy string

const (
	// BatchFIFO runs queries in submission order.
	BatchFIFO BatchPolicy = "fifo"
	// BatchMountAware reorders queries to minimize cartridge switches.
	BatchMountAware BatchPolicy = "mount-aware"
	// BatchSharedScan additionally fuses same-S queries onto shared
	// tape passes.
	BatchSharedScan BatchPolicy = "shared-scan"
)

// Typed failure-reason kinds: every failed query's Reason is
// "<kind>: <detail>" with kind one of these, so callers can switch on
// the class without parsing free text.
const (
	// ReasonInfeasible: no method fits the query on its resource
	// partition (admission rejection).
	ReasonInfeasible = workload.ReasonInfeasible
	// ReasonDeviceFailed: a device failure ended the query (with no
	// requeue, or again after one).
	ReasonDeviceFailed = workload.ReasonDeviceFailed
	// ReasonDeadline: an online query's deadline passed before
	// service started.
	ReasonDeadline = workload.ReasonDeadline
	// ReasonShutdown: the online engine shut down before the query
	// was served.
	ReasonShutdown = workload.ReasonShutdown
)

// BatchQuery is one join request in a multi-query batch.
type BatchQuery struct {
	// ID labels the query in results (default "q<index>").
	ID string
	// Method requests a join method; empty lets the cost advisor pick.
	Method Method
	// R is the smaller relation, S the larger.
	R, S *Relation
}

// BatchOptions tunes the workload engine.
type BatchOptions struct {
	// Policy selects the scheduler (default mount-aware).
	Policy BatchPolicy
	// CacheMB reserves disk space as a staging cache that retains
	// copied-R partitions across queries (LRU). Zero disables it.
	CacheMB float64
	// MountSeconds is the cartridge exchange cost (default 30).
	MountSeconds float64
	// MaxShared caps riders per shared S-pass (default 4).
	MaxShared int
}

// BatchQueryResult reports one query of a batch.
type BatchQueryResult struct {
	ID string
	// Requested and Method are the asked-for and executed join methods;
	// a shared-scan rider reports "SHARED".
	Requested, Method Method
	// Substituted, Shared, CacheHit and Failed mirror the scheduler's
	// decisions for this query; Reason explains a failure.
	Substituted, Shared, CacheHit, Failed bool
	Reason                                string
	// Requeued marks a query that was re-admitted on the surviving
	// device complex after a device-class failure (including shared-
	// pass riders demoted to solo service). A requeued query may still
	// succeed; Failed reports the final outcome.
	Requeued bool
	// Start, End and Wait position the query's service in virtual time.
	Start, End, Wait time.Duration
	// Matches is the output cardinality.
	Matches int64
	// OutputHash is the order-independent digest of the query's output
	// pairs: equal hashes mean the same multiset of pairs byte for
	// byte, whether the query ran solo, in a batch, or on the resident
	// service. Zero only for failed queries, which emit nothing.
	OutputHash uint64
}

// BatchReport is the outcome of a batch run.
type BatchReport struct {
	Policy BatchPolicy
	// Makespan is batch arrival to last completion, in virtual time.
	Makespan time.Duration
	// Mounts counts cartridge switches (RMounts + SMounts).
	Mounts, RMounts, SMounts int
	// SharedPasses counts shared S-scans executed.
	SharedPasses int
	// Requeues counts device-failure re-admissions of single queries;
	// Demotions counts riders of failed shared passes that fell back
	// to solo service.
	Requeues, Demotions int
	// Staging-cache activity.
	CacheHits, CacheMisses, CacheEvictions int64
	// TapeReadMB and TapeWrittenMB aggregate both drives.
	TapeReadMB, TapeWrittenMB float64
	// DiskPeakMB is the batch's peak disk footprint, cache included.
	DiskPeakMB float64
	// Queries holds per-query results in submission order.
	Queries []BatchQueryResult
	// Schedule is the engine's deterministic schedule log.
	Schedule []string
	// Report carries structured observability when Observe is set.
	Report *Report
}

// RunBatch executes a batch of join queries on the system under the
// given scheduling policy. All queries share the system's two drives,
// disk array and memory; the engine orders them to minimize cartridge
// mounts, fuses same-S queries onto shared tape passes, and retains
// staged R partitions in a disk cache, depending on the policy.
func (s *System) RunBatch(queries []BatchQuery, opts BatchOptions) (*BatchReport, error) {
	if opts.Policy == "" {
		opts.Policy = BatchMountAware
	}
	policy, err := workload.ParsePolicy(string(opts.Policy))
	if err != nil {
		return nil, err
	}
	runRes, err := s.runResources(s.runObs())
	if err != nil {
		return nil, err
	}

	cfg := workload.Config{
		Resources:   runRes,
		Policy:      policy,
		CacheBlocks: MBf(opts.CacheMB),
		MountTime:   time.Duration(opts.MountSeconds * float64(time.Second)),
		MaxShared:   opts.MaxShared,
	}
	wq := make([]workload.Query, len(queries))
	for i, q := range queries {
		if q.R == nil || q.S == nil {
			return nil, fmt.Errorf("tapejoin: batch query %d missing a relation", i)
		}
		wq[i] = workload.Query{
			ID: q.ID, Method: string(q.Method),
			R: q.R.rel, S: q.S.rel,
		}
	}
	out, err := workload.Run(cfg, wq)
	if err != nil {
		return nil, err
	}

	rep := &BatchReport{
		Policy:         BatchPolicy(out.Policy.String()),
		Makespan:       out.Makespan,
		Mounts:         out.Mounts,
		RMounts:        out.RMounts,
		SMounts:        out.SMounts,
		SharedPasses:   out.SharedPasses,
		Requeues:       out.Requeues,
		Demotions:      out.Demotions,
		CacheHits:      out.CacheHits,
		CacheMisses:    out.CacheMisses,
		CacheEvictions: out.CacheEvictions,
		TapeReadMB:     mbOf(out.TapeBlocksRead),
		TapeWrittenMB:  mbOf(out.TapeBlocksWritten),
		DiskPeakMB:     mbOf(out.DiskHighWater),
		Schedule:       out.Schedule,
	}
	for _, qr := range out.Queries {
		rep.Queries = append(rep.Queries, BatchQueryResult{
			ID:          qr.ID,
			Requested:   Method(qr.Requested),
			Method:      Method(qr.Method),
			Substituted: qr.Substituted,
			Shared:      qr.Shared,
			CacheHit:    qr.CacheHit,
			Failed:      qr.Failed,
			Reason:      qr.Reason,
			Requeued:    qr.Requeued,
			Start:       qr.Start,
			End:         qr.End,
			Wait:        qr.Wait,
			Matches:     qr.Matches,
			OutputHash:  qr.OutputHash,
		})
	}
	rep.Report = s.runReport(runRes, sim.Time(out.Makespan))
	return rep, nil
}
