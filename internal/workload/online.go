package workload

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the online half of the workload engine: the same
// scheduler machinery as the batch Run — mounts, admission control,
// shared S-scans, the staging cache — hosted on one long-lived
// join.Session so queries can arrive continuously instead of as a
// closed batch. The bridge between wall-clock arrivals and the
// virtual-time kernel is the sim package's external-completion
// protocol: the scheduler proc parks in Await on an "arrival"
// completion whenever the queue is empty (or a merge window is open),
// and Submit — called from any goroutine — posts it with the measured
// wall wait, which the kernel charges as virtual time. Idle time on
// the service's clock is therefore real idle time, and everything the
// batch engine made real — head positions, cache hits, mount churn —
// persists across the service's lifetime.

// ErrDraining is returned by Submit once Drain has been called (or the
// engine's kernel has stopped): the service finishes admitted work but
// accepts no more.
var ErrDraining = errors.New("workload: engine draining")

// ReasonInternal marks a query that failed with a non-device scheduler
// or simulator error; the engine keeps serving other queries.
const ReasonInternal = "internal"

// OnlineQuery is one continuously-arriving join request.
type OnlineQuery struct {
	// Query carries the batch fields: ID, Method, R, S, filters, Sink.
	Query
	// Tenant labels the submitting tenant (quota accounting lives in
	// the service layer; the engine only echoes it).
	Tenant string
	// Priority orders the queue: higher runs first; equal priorities
	// run in arrival order. Zero is the default class.
	Priority int
	// Deadline, when non-zero, expires the query if service has not
	// started by that wall-clock instant: it then fails with a typed
	// ReasonDeadline instead of occupying a drive.
	Deadline time.Time
}

// OnlineResult is the engine's answer to one online query.
type OnlineResult struct {
	QueryResult
	// Tenant echoes the query.
	Tenant string
	// Arrived, Started and Finished stamp the query's wall-clock
	// lifecycle (Started/Finished are zero for queries rejected before
	// service).
	Arrived, Started, Finished time.Time
}

// WallWait is the wall-clock time from arrival to service start (or to
// rejection).
func (r OnlineResult) WallWait() time.Duration {
	if r.Started.IsZero() {
		return r.Finished.Sub(r.Arrived)
	}
	return r.Started.Sub(r.Arrived)
}

// WallLatency is the wall-clock time from arrival to completion.
func (r OnlineResult) WallLatency() time.Duration { return r.Finished.Sub(r.Arrived) }

// onlineLogLines bounds the resident engine's schedule log.
const onlineLogLines = 4096

// OnlineConfig tunes the resident engine.
type OnlineConfig struct {
	// Config is the batch configuration: resources, policy, cache,
	// mount time, MaxShared.
	Config
	// MergeWindow holds a shared-scan seed query back for up to this
	// wall-clock duration so later same-S arrivals can merge into its
	// pass. Zero merges only what is already queued. Ignored by the
	// fifo and mount-aware policies and while draining.
	MergeWindow time.Duration
}

// OnlineStats is a point-in-time snapshot of the resident engine.
type OnlineStats struct {
	// Queued and InFlight count queries waiting and currently in
	// service; Served, Failed and Expired count delivered outcomes
	// (Failed ⊇ Expired).
	Queued, InFlight int
	Served, Failed   int64
	Expired          int64
	// Batch-engine counters, cumulative since Start.
	Mounts, RMounts, SMounts               int
	SharedPasses                           int
	SharedRiders                           int64
	Requeues, Demotions                    int
	CacheHits, CacheMisses, CacheEvictions int64
	TapeBlocksRead, TapeBlocksWritten      int64
	DiskHighWater                          int64
	// VirtualNow is the session clock; ScheduleTail the most recent
	// schedule-log lines (at most onlineLogLines).
	VirtualNow      sim.Duration
	ScheduleTail    []string
	ScheduleDropped int64
}

// pendingQ is one queued online query with its delivery channel.
type pendingQ struct {
	q       OnlineQuery
	seq     int64
	arrived time.Time
	started time.Time
	ch      chan OnlineResult
}

// arrivalWaiter is the armed wakeup of a parked scheduler proc. It is
// posted exactly once — by Submit, by a merge-window timer, or by
// Drain — whichever fires first; stale timers find the engine's waiter
// pointer moved on and do nothing.
type arrivalWaiter struct {
	c     *sim.Completion
	armed time.Time
}

// OnlineEngine is a resident scheduler serving continuously-arriving
// join queries on one long-lived session. Start it with StartOnline,
// feed it with Submit, stop it with Drain.
type OnlineEngine struct {
	cfg     OnlineConfig
	session *join.Session
	en      *engine

	mu       sync.Mutex
	queue    []*pendingQ
	serving  []*pendingQ
	waiter   *arrivalWaiter
	draining bool
	nextSeq  int64
	stats    OnlineStats
	runErr   error

	done chan struct{}
}

// StartOnline builds the device complex and starts the resident
// scheduler. The caller must eventually call Drain (or Close) to stop
// the kernel and release the session's devices.
func StartOnline(cfg OnlineConfig) (*OnlineEngine, error) {
	cfg.Config = cfg.Config.withDefaults()
	session, err := join.NewSession(cfg.Resources)
	if err != nil {
		return nil, err
	}
	res := session.Resources()
	if cfg.CacheBlocks < 0 || cfg.CacheBlocks >= res.DiskBlocks {
		session.Close()
		return nil, fmt.Errorf("workload: CacheBlocks %d outside [0, D=%d)", cfg.CacheBlocks, res.DiskBlocks)
	}
	reg := res.Metrics
	e := &OnlineEngine{
		cfg: cfg, session: session,
		done: make(chan struct{}),
	}
	e.en = &engine{
		cfg: cfg.Config, session: session,
		scheduleCap: onlineLogLines,
		array:       session.Disks(),
		cache:       newStagingCache(cfg.CacheBlocks),
		out:         &BatchResult{Policy: cfg.Policy},
		queueWait: reg.Histogram("workload_queue_wait_seconds",
			"Virtual time queries waited before service started.", obs.BackoffBuckets),
		mountsC: reg.Counter("workload_mounts_total", "Cartridge switches charged by the scheduler."),
		hitsC:   reg.Counter("workload_cache_hits_total", "Staging-cache hits (R copies served from disk)."),
		missesC: reg.Counter("workload_cache_misses_total", "Staging-cache misses (R copies read from tape)."),
		sharedC: reg.Counter("workload_shared_passes_total", "Shared S-scan passes executed."),
	}
	session.Kernel().Spawn("online-scheduler", func(p *sim.Proc) {
		for {
			grp := e.nextGroup(p)
			if grp == nil {
				return
			}
			e.serveGroup(p, grp)
		}
	})
	go func() {
		err := session.Kernel().Run()
		session.Finish()
		if cerr := session.Close(); err == nil {
			err = cerr
		}
		e.shutdownSweep(err)
		close(e.done)
	}()
	return e, nil
}

// Submit enqueues one query and returns the channel its single result
// will be delivered on (the channel is buffered and closed after the
// send, so receivers never block the engine). Submit validates the
// spec up front; invalid queries are rejected synchronously. After
// Drain, Submit fails with ErrDraining.
func (e *OnlineEngine) Submit(q OnlineQuery) (<-chan OnlineResult, error) {
	spec := join.Spec{R: q.R, S: q.S, FilterR: q.FilterR, FilterS: q.FilterS}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("workload: query %q: %w", q.ID, err)
	}
	if q.Method != "" {
		if _, err := join.BySymbol(q.Method); err != nil {
			return nil, fmt.Errorf("workload: query %q: %w", q.ID, err)
		}
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	e.nextSeq++
	if q.ID == "" {
		q.ID = fmt.Sprintf("oq%d", e.nextSeq)
	}
	pq := &pendingQ{
		q: q, seq: e.nextSeq, arrived: time.Now(),
		ch: make(chan OnlineResult, 1),
	}
	e.queue = append(e.queue, pq)
	e.fireLocked()
	e.mu.Unlock()
	return pq.ch, nil
}

// Drain stops admission, serves everything already queued, and shuts
// the engine down: the scheduler proc exits once the queue is empty,
// the kernel drains, and the session's devices are released. It
// returns the kernel's error, if any. Safe to call more than once.
func (e *OnlineEngine) Drain() error {
	e.mu.Lock()
	e.draining = true
	e.fireLocked()
	e.mu.Unlock()
	<-e.done
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runErr
}

// Stats returns the engine's latest published snapshot. It is updated
// after every served group, so a mid-pass scrape lags by at most one
// scheduling step.
func (e *OnlineEngine) Stats() OnlineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Queued = len(e.queue)
	st.InFlight = len(e.serving)
	st.ScheduleTail = append([]string(nil), st.ScheduleTail...)
	return st
}

// fireLocked posts the armed arrival completion, if any, with the
// measured wall wait. Call with e.mu held.
func (e *OnlineEngine) fireLocked() {
	if w := e.waiter; w != nil {
		e.waiter = nil
		w.c.Post(time.Since(w.armed), nil)
	}
}

// park arms an arrival waiter and blocks the scheduler proc on it.
// With window > 0 a timer fires the waiter when the merge window
// closes, even if nothing arrives. Called with e.mu held; returns with
// it released.
func (e *OnlineEngine) park(p *sim.Proc, window time.Duration) {
	w := &arrivalWaiter{c: p.StartIO("arrival"), armed: time.Now()}
	e.waiter = w
	if window > 0 {
		time.AfterFunc(window, func() {
			e.mu.Lock()
			if e.waiter == w {
				e.waiter = nil
				w.c.Post(time.Since(w.armed), nil)
			}
			e.mu.Unlock()
		})
	}
	e.mu.Unlock()
	p.Await(w.c)
}

// nextGroup blocks until there is work and returns the next group to
// serve — one query, or several same-S queries admitted onto a shared
// pass. A nil return means the engine is draining and the queue is
// empty: the scheduler proc should exit.
func (e *OnlineEngine) nextGroup(p *sim.Proc) []*pendingQ {
	for {
		e.mu.Lock()
		e.expireLocked()
		if len(e.queue) == 0 {
			if e.draining {
				e.mu.Unlock()
				return nil
			}
			e.park(p, 0) // releases e.mu
			continue
		}
		grp, wait, notes := e.pickLocked()
		if wait > 0 {
			e.park(p, wait) // releases e.mu
			continue
		}
		e.removeLocked(grp)
		e.serving = append(e.serving, grp...)
		e.mu.Unlock()
		for _, n := range notes {
			e.en.logf(p, "%s", n)
		}
		return grp
	}
}

// expireLocked fails queued queries whose deadlines have passed before
// service started. Call with e.mu held.
func (e *OnlineEngine) expireLocked() {
	now := time.Now()
	kept := e.queue[:0]
	for _, pq := range e.queue {
		if !pq.q.Deadline.IsZero() && now.After(pq.q.Deadline) {
			pq.ch <- OnlineResult{
				QueryResult: QueryResult{
					ID: pq.q.ID, Requested: pq.q.Method,
					Failed: true,
					Reason: typedReason(ReasonDeadline, fmt.Errorf("queued %v", now.Sub(pq.arrived).Round(time.Millisecond))),
				},
				Tenant:  pq.q.Tenant,
				Arrived: pq.arrived, Finished: now,
			}
			close(pq.ch)
			e.stats.Failed++
			e.stats.Expired++
			continue
		}
		kept = append(kept, pq)
	}
	e.queue = kept
}

// pickLocked chooses the next group under the policy. It returns
// either a non-empty group, or a positive wait meaning "park for up to
// this long — a merge window is still open". notes are admission's
// priced rejections for the schedule log. Call with e.mu held.
func (e *OnlineEngine) pickLocked() (grp []*pendingQ, wait time.Duration, notes []string) {
	seed := e.queue[0]
	for _, pq := range e.queue[1:] {
		if pq.q.Priority > seed.q.Priority {
			seed = pq
		}
	}
	if e.cfg.Policy != FIFO {
		// Mount-awareness, online: among the seed's priority band,
		// prefer a query whose S cartridge is already in the drive —
		// the online analogue of the batch S-grouping.
		loaded := e.session.DriveS().Media()
		if loaded != nil && seed.q.S.Media != loaded {
			for _, pq := range e.queue {
				if pq.q.Priority == seed.q.Priority && pq.q.S.Media == loaded {
					seed = pq
					break
				}
			}
		}
	}
	if e.cfg.Policy != SharedScan || seed.q.StopAfter > 0 {
		// StopAfter queries run solo (see Query.StopAfter): a shared pass
		// streams the whole S scan to every rider.
		return []*pendingQ{seed}, 0, nil
	}

	// Shared-scan: gather queued queries over the seed's S relation, in
	// queue order, and let admission control pack them onto one pass.
	cand := []*pendingQ{seed}
	for _, pq := range e.queue {
		if pq != seed && pq.q.S == seed.q.S && pq.q.StopAfter == 0 && len(cand) < e.cfg.MaxShared {
			cand = append(cand, pq)
		}
	}
	if len(cand) < e.cfg.MaxShared && !e.draining && e.cfg.MergeWindow > 0 {
		if open := e.cfg.MergeWindow - time.Since(seed.arrived); open > 0 {
			return nil, open, nil
		}
	}
	if len(cand) == 1 {
		return cand, 0, nil
	}
	qs := make([]Query, len(cand))
	idx := make([]int, len(cand))
	for i, pq := range cand {
		qs[i], idx[i] = pq.q.Query, i
	}
	admitted, _, notes := admitShared(e.cfg.Config, e.session.Resources(), qs, idx)
	if len(admitted) < 2 {
		return []*pendingQ{seed}, 0, notes
	}
	for _, i := range admitted {
		grp = append(grp, cand[i])
	}
	return grp, 0, notes
}

// removeLocked deletes the group's members from the queue. Call with
// e.mu held.
func (e *OnlineEngine) removeLocked(grp []*pendingQ) {
	drop := make(map[*pendingQ]bool, len(grp))
	for _, pq := range grp {
		drop[pq] = true
	}
	kept := e.queue[:0]
	for _, pq := range e.queue {
		if !drop[pq] {
			kept = append(kept, pq)
		}
	}
	e.queue = kept
}

// serveGroup runs one scheduling step on the engine — a solo query or
// a shared pass — and delivers each member's result. Non-device errors
// fail the group's queries with a typed reason instead of killing the
// resident service.
func (e *OnlineEngine) serveGroup(p *sim.Proc, grp []*pendingQ) {
	started := time.Now()
	base := len(e.en.queries)
	qis := make([]int, len(grp))
	for i, pq := range grp {
		pq.started = started
		e.en.queries = append(e.en.queries, pq.q.Query)
		e.en.results = append(e.en.results, QueryResult{})
		qis[i] = base + i
	}
	var err error
	if len(grp) > 1 {
		err = e.en.runShared(p, qis)
	} else {
		err = e.en.runSingle(p, qis[0])
	}
	finished := time.Now()
	e.mu.Lock()
	if len(grp) > 1 {
		e.stats.SharedRiders += int64(len(grp))
	}
	for i, pq := range grp {
		res := e.en.results[qis[i]]
		if err != nil && res.ID == "" {
			res = QueryResult{
				ID: pq.q.ID, Requested: pq.q.Method,
				Failed: true, Reason: typedReason(ReasonInternal, err),
			}
		}
		pq.ch <- OnlineResult{
			QueryResult: res,
			Tenant:      pq.q.Tenant,
			Arrived:     pq.arrived, Started: pq.started, Finished: finished,
		}
		close(pq.ch)
		if res.Failed {
			e.stats.Failed++
		} else {
			e.stats.Served++
		}
	}
	e.unserveLocked(grp)
	e.publishLocked()
	e.mu.Unlock()
}

// unserveLocked drops delivered queries from the serving set. Call
// with e.mu held.
func (e *OnlineEngine) unserveLocked(grp []*pendingQ) {
	drop := make(map[*pendingQ]bool, len(grp))
	for _, pq := range grp {
		drop[pq] = true
	}
	kept := e.serving[:0]
	for _, pq := range e.serving {
		if !drop[pq] {
			kept = append(kept, pq)
		}
	}
	e.serving = kept
}

// publishLocked refreshes the stats snapshot from the batch engine's
// counters and the session's devices. Runs on the scheduler proc with
// e.mu held, so readers never see a torn update.
func (e *OnlineEngine) publishLocked() {
	out := e.en.out
	e.stats.Mounts, e.stats.RMounts, e.stats.SMounts = out.Mounts, out.RMounts, out.SMounts
	e.stats.SharedPasses = out.SharedPasses
	e.stats.Requeues, e.stats.Demotions = out.Requeues, out.Demotions
	e.stats.CacheHits = e.en.cache.Hits
	e.stats.CacheMisses = e.en.cache.Misses
	e.stats.CacheEvictions = e.en.cache.Evictions
	rStats, sStats := e.session.DriveR().DriveStats(), e.session.DriveS().DriveStats()
	e.stats.TapeBlocksRead = rStats.BlocksRead + sStats.BlocksRead
	e.stats.TapeBlocksWritten = rStats.BlocksWritten + sStats.BlocksWritten
	if hw := e.session.Disks().HighWater(); hw > e.stats.DiskHighWater {
		e.stats.DiskHighWater = hw
	}
	e.stats.VirtualNow = sim.Duration(e.session.Kernel().Now())
	// Copy the tail: the scheduler proc keeps appending to the live log
	// outside the lock, so the snapshot must not alias it.
	tail := out.Schedule
	if len(tail) > 100 {
		tail = tail[len(tail)-100:]
	}
	e.stats.ScheduleTail = append(e.stats.ScheduleTail[:0], tail...)
	e.stats.ScheduleDropped = out.ScheduleDropped
}

// shutdownSweep runs after the kernel has stopped: it records the run
// error, marks the engine draining, and fails every undelivered query
// with a typed shutdown reason so no submitter hangs.
func (e *OnlineEngine) shutdownSweep(runErr error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runErr = runErr
	e.draining = true
	cause := runErr
	if cause == nil {
		cause = errors.New("engine closed")
	}
	now := time.Now()
	for _, set := range [][]*pendingQ{e.queue, e.serving} {
		for _, pq := range set {
			pq.ch <- OnlineResult{
				QueryResult: QueryResult{
					ID: pq.q.ID, Requested: pq.q.Method,
					Failed: true, Reason: typedReason(ReasonShutdown, cause),
				},
				Tenant:  pq.q.Tenant,
				Arrived: pq.arrived, Started: pq.started, Finished: now,
			}
			close(pq.ch)
			e.stats.Failed++
		}
	}
	e.queue, e.serving = nil, nil
}
