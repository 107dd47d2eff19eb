package join

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The fault-recovery budgets of a join run (Resources.DisableRecovery
// turns recovery off).
const (
	// maxReadRetries bounds re-read attempts per device read before
	// the read fails with fault.ErrFaultExhausted.
	maxReadRetries = 4
	// retryBackoff is the virtual-time cost of the first reposition +
	// re-read attempt; it doubles per attempt. Recovery is charged in
	// virtual time, so it shows up in response time.
	retryBackoff = 2 * time.Second
	// maxUnitRestarts bounds how many times one recoverable unit of
	// work (an iteration, bucket or chunk) restarts.
	maxUnitRestarts = 3
	// maxRecovery bounds the total virtual time one read may spend in
	// backoff before giving up regardless of retries left.
	maxRecovery = 10 * time.Minute
)

// verifyBlocks checks every delivered block's checksum, converting
// silent corruption into a typed error at the point of transfer.
func verifyBlocks(blks []block.Block) error {
	for i, blk := range blks {
		if err := blk.Verify(); err != nil {
			return fmt.Errorf("block %d of read: %w", i, err)
		}
	}
	return nil
}

// readDev is the retrying device-read path every join read goes
// through: execute the read, verify the delivered blocks, and on a
// retryable failure reposition + re-read with bounded exponential
// backoff charged in virtual time. A spent retry budget converts the
// last cause into fault.ErrFaultExhausted.
//
// Delivered blocks are verified only when the run has a fault
// injector. Every corrupting effect — a tape or disk bit flip, an
// armed OS decision — is decided by that injector, and attach gives it
// to every device of the session, replacements included; without one
// the device vouches for what it delivers: a sim device hands back the
// bytes it stored, and a file read has passed its frame CRC, which
// covers the same bytes.
func (e *env) readDev(p *sim.Proc, device string, read func() ([]block.Block, error)) ([]block.Block, error) {
	var deadline sim.Deadline
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		// Early-termination poll: a satisfied (or cancelled) run stops
		// issuing device work here, before the next transfer — this is
		// what keeps a StopAfter run's tape/disk counters strictly below
		// the full run's.
		if err := e.checkStop(); err != nil {
			return nil, err
		}
		blks, err := read()
		if err == nil && e.inj != nil {
			err = verifyBlocks(blks)
		}
		if err == nil {
			return blks, nil
		}
		if e.res.DisableRecovery || !fault.Acts(fault.Reread, err) {
			return nil, err
		}
		if attempt == 0 {
			deadline = sim.NewDeadline(p, maxRecovery)
		}
		if attempt >= maxReadRetries || deadline.Exceeded(p) {
			return nil, fmt.Errorf("%w after %d attempts on %s: %w",
				fault.ErrFaultExhausted, attempt+1, device, err)
		}
		// Reposition + re-read: the backoff stands in for rewinding
		// past the bad spot and restreaming, charged in virtual time.
		hold := backoff
		if r := deadline.Remaining(p); hold > r {
			hold = r
		}
		e.stats.Retries++
		e.stats.RecoveryTime += hold
		sp := e.span(p, "retry-backoff", obs.A("device", device))
		t0 := p.Now()
		p.Hold(hold)
		e.res.Spans.Record(p, obs.Event{
			Device: device, Kind: obs.Retry,
			Start: t0, End: p.Now(), Note: "read retry backoff",
		})
		sp.Close(p)
		e.retryBackoff.Observe(hold.Seconds())
		e.res.Flight.RecordV(p.Now(), "retry", device,
			fmt.Sprintf("join-layer re-read %d after %v backoff", attempt+1, hold))
		backoff *= 2
	}
}

// tapeRead is readDev over a drive read.
func (e *env) tapeRead(p *sim.Proc, drive device.Drive, a device.Addr, n int64) ([]block.Block, error) {
	return e.readDev(p, "tape:"+drive.Name(), func() ([]block.Block, error) {
		return drive.ReadAt(p, a, n)
	})
}

// readSrc is readDev over a bucket source.
func (e *env) readSrc(p *sim.Proc, src bucketSource, off, n int64) ([]block.Block, error) {
	return e.readDev(p, src.device(), func() ([]block.Block, error) {
		return src.read(p, off, n)
	})
}

// staged runs work with its output staged in the run's log: kept on
// success — flushed at once by a streaming run, left for Exec's final
// flush by a whole-run-staged one — and rewound to the savepoint on
// failure, so a retried unit never double-delivers; a Rewinder sink
// fed live (e.rew) is rewound to its own mark alongside. A unit
// stopped by the output cut-off commits what it emitted — those pairs
// are delivered, the stop just cut the unit short — while a real
// failure also rolls the emission count back so the restarted unit
// re-counts from the committed baseline. Units do not nest. With
// recovery disabled it runs work directly.
func (e *env) staged(p *sim.Proc, work func() error) error {
	if e.res.DisableRecovery {
		return work()
	}
	mark := e.log.savepoint()
	var sinkMark any
	if e.rew != nil {
		sinkMark = e.rew.Mark()
	}
	before := e.emitted
	e.staging = true
	err := work()
	e.staging = e.wholeRun
	if err == nil || errors.Is(err, ErrStopped) {
		sp := e.span(p, "stage-commit", obs.AInt("pairs", e.emitted-before))
		if !e.wholeRun {
			e.log.flush(p, e.deliver)
		}
		sp.Close(p)
		return err
	}
	e.log.rewind(mark)
	if e.rew != nil {
		e.rew.Rewind(sinkMark)
	}
	e.emitted = before
	return err
}

// runUnit retries one recoverable unit of work (an iteration, bucket
// or chunk). work is responsible for staging its own output (see
// staged) and for re-staging lost inputs on re-entry. Unrecoverable
// errors and exhausted restart budgets propagate.
func (e *env) runUnit(p *sim.Proc, name string, work func(*sim.Proc) error) error {
	for attempt := 0; ; attempt++ {
		err := work(p)
		if err == nil || e.res.DisableRecovery {
			return err
		}
		// After a disk loss, allocations sized for the original array may
		// overflow the shrunken one, and the restart re-derives its sizing
		// from effectiveD.
		restart := fault.Acts(fault.Restart, err) ||
			len(e.disks.DeadDisks()) > 0 && fault.Acts(fault.RestartAfterLoss, err)
		if !restart || attempt >= maxUnitRestarts {
			return err
		}
		e.stats.UnitRestarts++
		e.unitRestarts.Inc()
		e.res.Spans.Record(p, obs.Event{
			Device: "-", Kind: obs.Retry,
			Start: p.Now(), End: p.Now(),
			Note: fmt.Sprintf("restart %s after: %v", name, err),
		})
	}
}

// effectiveD returns the live disk budget: the configured D shrunk in
// proportion to any drives the array has lost.
func (e *env) effectiveD() int64 {
	if cap := e.disks.TotalCapacity(); cap < e.res.DiskBlocks {
		return cap
	}
	return e.res.DiskBlocks
}

// anyLost reports whether any file lost extents to a dead drive.
func anyLost(files []device.File) bool {
	for _, f := range files {
		if f.Lost() {
			return true
		}
	}
	return false
}

// degradeCandidates are the sequential fallbacks considered when a
// tape drive dies, in preference order for equal cost. All run on a
// single shared transport without drive-contention pathologies.
var degradeCandidates = []Method{DTGH{}, DTNB{}, TTGH{}}

// degradeRerun handles a permanent tape-drive loss: mount both
// cartridges behind one shared transport, discard the failed attempt's
// staged output and disk space, re-plan to the cheapest sequential
// method that fits, and run it to completion in the same
// virtual timeline — so the degraded run's response time includes
// everything the failed attempt cost.
func (e *env) degradeRerun(p *sim.Proc, cause error) error {
	e.stats.DriveLost = true
	replan := e.span(p, "degrade-replan")
	e.res.Spans.Record(p, obs.Event{
		Device: "-", Kind: obs.Degrade,
		Start: p.Now(), End: p.Now(),
		Note: fmt.Sprintf("drive lost, re-planning: %v", cause),
	})

	// Discard the failed attempt: staged output (or what a Rewinder
	// sink took live), leaked memory accounting, disk space, and tape
	// scratch garbage. The emission count and first-tuple stamp
	// restart with the rerun — nothing the failed attempt produced was
	// delivered (Exec only degrades when the whole run is staged or
	// nothing streamed out yet).
	e.log.rewind(logMark{})
	if e.rew != nil {
		e.rew.Rewind(e.runMark)
	}
	e.emitted = 0
	e.firstEmitSet = false
	e.stats.FirstTuple = 0
	e.mem.used = 0
	e.retireDisks()
	if m, ok := e.spec.R.Media.(device.Truncatable); ok && m.EOD() > e.eodR {
		m.Truncate(e.eodR)
	}
	if m, ok := e.spec.S.Media.(device.Truncatable); ok && m.EOD() > e.eodS {
		m.Truncate(e.eodS)
	}

	// Mount both cartridges behind one surviving transport. The new
	// logical drives carry fresh names so device-keyed fault rules
	// that killed the old drive do not re-fire.
	e.retiredDrives = append(e.retiredDrives, e.driveR, e.driveS)
	dr, ds, err := e.res.Backend.NewSharedDrivePair(e.k, "R2", "S2", e.res.Tape)
	if err != nil {
		replan.Close(p)
		return fmt.Errorf("join: no shared transport after drive loss: %w", err)
	}
	dr.Load(e.spec.R.Media)
	ds.Load(e.spec.S.Media)
	attach(e.res, e.inj, dr, ds)
	e.driveR, e.driveS = dr, ds
	e.res.DiskBlocks = e.effectiveD()
	e.dbuf, e.dbufCap = nil, 0

	// Re-plan: the cheapest sequential candidate whose footprint fits
	// the surviving resources.
	best := rankSpec(degradeCandidates, e.spec, e.res)[0]
	if best.Est.Err != nil {
		replan.Close(p)
		return fmt.Errorf("join: no feasible fallback after drive loss: %w", cause)
	}
	e.stats.DegradedTo = best.Method.Symbol()
	e.res.Spans.Record(p, obs.Event{
		Device: "-", Kind: obs.Degrade,
		Start: p.Now(), End: p.Now(),
		Note: "degraded to " + best.Method.Symbol() + " on shared transport",
	})
	// Close before the rerun so the fallback's phases stay top-level.
	replan.Close(p)
	return best.Method.run(e, p)
}

// retireDisks replaces the array with a fresh one on the same kernel,
// pushing the old array (and its space accounting) onto the retired
// list for final stats. Pending disk-failure rules re-fire against the
// new array's drives, so a dead disk stays dead.
func (e *env) retireDisks() {
	e.retiredArrays = append(e.retiredArrays, e.disks)
	a, err := e.res.Backend.NewStore(e.k, e.disks.Config())
	if err != nil {
		panic(err) // config was valid for the original array
	}
	attach(e.res, e.inj, a)
	e.disks = a
}
