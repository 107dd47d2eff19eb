package workload

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the scheduler loop of the workload engine. One engine
// serves both modes: a batch (Run) is the engine started with every
// query already queued and the engine already draining; the resident
// service (StartOnline) is the same engine fed by Submit while it
// runs. Both host their queries on one long-lived join.Session, and
// both pick every unit of work with the one picker, pick. The bridge
// between wall-clock arrivals and the virtual-time kernel is the sim
// package's external-completion protocol: the scheduler proc parks in
// Await on an "arrival" completion whenever the queue is empty (or a
// merge window is open), and Submit — called from any goroutine —
// posts it with the measured wall wait, which the kernel charges as
// virtual time. Idle time on the service's clock is therefore real
// idle time, and everything the engine makes real — head positions,
// cache hits, mount churn — persists across the service's lifetime.

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
	// run in the policy's order. Zero is the default class.
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
	// MergeWindow holds a shared-scan unit back for up to this
	// wall-clock duration from its oldest query's arrival, while it has
	// fewer than MaxShared queries, so later same-S arrivals can merge
	// into its pass. Zero merges only what is already queued. Ignored
	// by the fifo and mount-aware policies and while draining.
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
	// Counters are cumulative since Start; DiskHighWater is the peak
	// over every disk array the engine has used.
	Counters
	// SharedRiders counts queries served on shared passes.
	SharedRiders int64
	// VirtualNow is the session clock; ScheduleTail the most recent
	// schedule-log lines (at most onlineLogLines).
	VirtualNow      sim.Duration
	ScheduleTail    []string
	ScheduleDropped int64
}

// pendingQ is one queued query with its delivery channel.
type pendingQ struct {
	q   OnlineQuery
	seq int64
	// sRank and rRank place the query in mount-aware order: the seq of
	// the oldest query still queued on its S cartridge, and on its S
	// and R cartridges, when it arrived (its own seq if none was).
	sRank, rRank int64
	arrived      time.Time
	started      time.Time
	ch           chan OnlineResult
}

// arrivalWaiter is the armed wakeup of a parked scheduler proc. It is
// posted exactly once — by Submit, by a merge-window timer, or by
// Drain — whichever fires first; stale timers find the engine's waiter
// pointer moved on and do nothing.
type arrivalWaiter struct {
	c     *sim.Completion
	armed time.Time
}

// OnlineEngine is the workload scheduler: a queue of join queries
// served on one long-lived session by the scheduler proc. Start a
// resident one with StartOnline, feed it with Submit, stop it with
// Drain; Run serves a closed batch on one.
type OnlineEngine struct {
	engine
	mergeWindow time.Duration

	mu       sync.Mutex
	queue    []*pendingQ
	serving  []*pendingQ
	waiter   *arrivalWaiter
	draining bool
	nextSeq  int64
	// last is the last query of the unit served most recently: pick's
	// anchor.
	last   *Query
	stats  OnlineStats
	runErr error

	done chan struct{}
}

// newEngine builds the device complex and an idle engine over it; Run
// and StartOnline both start from here. scheduleCap bounds the
// schedule log to its most recent lines (0 = unbounded).
func newEngine(cfg OnlineConfig, scheduleCap int) (*OnlineEngine, error) {
	cfg.Config = cfg.Config.withDefaults()
	session, err := join.NewSession(cfg.Resources)
	if err != nil {
		return nil, err
	}
	if d := session.Resources().DiskBlocks; cfg.CacheBlocks < 0 || cfg.CacheBlocks >= d {
		session.Close()
		return nil, fmt.Errorf("workload: CacheBlocks %d outside [0, D=%d)", cfg.CacheBlocks, d)
	}
	reg := session.Resources().Metrics
	return &OnlineEngine{
		engine: engine{
			cfg: cfg.Config, session: session,
			scheduleCap: scheduleCap,
			array:       session.Disks(),
			cache:       newStagingCache(cfg.CacheBlocks),
			out:         &BatchResult{Policy: cfg.Policy},
			queueWait: reg.Histogram("workload_queue_wait_seconds",
				"Virtual time queries waited before service started.", obs.BackoffBuckets),
			mountsC: reg.Counter("workload_mounts_total", "Cartridge switches charged by the scheduler."),
			hitsC:   reg.Counter("workload_cache_hits_total", "Staging-cache hits (R copies served from disk)."),
			missesC: reg.Counter("workload_cache_misses_total", "Staging-cache misses (R copies read from tape)."),
			sharedC: reg.Counter("workload_shared_passes_total", "Shared S-scan passes executed."),
		},
		mergeWindow: cfg.MergeWindow,
		done:        make(chan struct{}),
	}, nil
}

// StartOnline builds the device complex and starts the resident
// scheduler. The caller must eventually call Drain (or Close) to stop
// the kernel and release the session's devices.
func StartOnline(cfg OnlineConfig) (*OnlineEngine, error) {
	e, err := newEngine(cfg, onlineLogLines)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// start runs the scheduler proc on the kernel in the background; when
// the kernel stops, the session is released and every undelivered
// query fails typed.
func (e *OnlineEngine) start() {
	e.session.Kernel().Spawn("online-scheduler", func(p *sim.Proc) { e.schedule(p) })
	go func() {
		err := e.session.Kernel().Run()
		e.session.Finish()
		if cerr := e.session.Close(); err == nil {
			err = cerr
		}
		e.shutdownSweep(err)
		close(e.done)
	}()
}

// schedule is the scheduler proc: it serves unit after unit until the
// engine is draining and the queue is empty. A non-device error fails
// its step's queries and does not stop the loop; the first one is
// returned.
func (e *OnlineEngine) schedule(p *sim.Proc) error {
	var first error
	for unit := e.nextUnit(p); unit != nil; unit = e.nextUnit(p) {
		for _, st := range unit {
			if err := e.serveStep(p, st); first == nil {
				first = err
			}
		}
	}
	return first
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
	defer e.mu.Unlock()
	if e.draining {
		return nil, ErrDraining
	}
	pq := e.enqueueLocked(q)
	e.fireLocked()
	return pq.ch, nil
}

// enqueueLocked appends q to the queue, in the S- and R-cartridge
// groups of the queries already queued. Call with e.mu held.
func (e *OnlineEngine) enqueueLocked(q OnlineQuery) *pendingQ {
	e.nextSeq++
	if q.ID == "" {
		q.ID = fmt.Sprintf("oq%d", e.nextSeq)
	}
	pq := &pendingQ{
		q: q, seq: e.nextSeq, sRank: e.nextSeq, rRank: e.nextSeq,
		arrived: time.Now(), ch: make(chan OnlineResult, 1),
	}
	for _, o := range e.queue {
		if o.q.S.Media != q.S.Media {
			continue
		}
		pq.sRank = min(pq.sRank, o.sRank)
		if o.q.R.Media == q.R.Media {
			pq.rRank = min(pq.rRank, o.rRank)
		}
	}
	e.queue = append(e.queue, pq)
	return pq
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
// after every served step, so a mid-pass scrape lags by at most one
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

// nextUnit blocks until there is work and returns the next unit to
// serve. A nil return means the engine is draining and the queue is
// empty: the scheduler proc should exit.
func (e *OnlineEngine) nextUnit(p *sim.Proc) []step {
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
		unit, wait := e.pickLocked()
		if wait > 0 {
			e.park(p, wait) // releases e.mu
			continue
		}
		for _, st := range unit {
			e.queue = without(e.queue, st.members)
			e.serving = append(e.serving, st.members...)
		}
		last := unit[len(unit)-1].members
		e.last = &last[len(last)-1].q.Query
		e.mu.Unlock()
		return unit
	}
}

// expireLocked fails queued queries whose deadlines have passed before
// service started. Call with e.mu held.
func (e *OnlineEngine) expireLocked() {
	now := time.Now()
	kept := e.queue[:0]
	for _, pq := range e.queue {
		if !pq.q.Deadline.IsZero() && now.After(pq.q.Deadline) {
			e.deliverLocked(pq, pq.failed(ReasonDeadline, fmt.Errorf("queued %v", now.Sub(pq.arrived).Round(time.Millisecond))), now)
			e.stats.Expired++
			continue
		}
		kept = append(kept, pq)
	}
	e.queue = kept
}

// pickLocked adds the online-only rules to pick: only the highest
// queued priority band is offered to it, and a shared-scan unit with
// room for more riders waits out the merge window of its oldest query.
// It returns either a unit, or a positive wait meaning "park for up to
// this long". Call with e.mu held.
func (e *OnlineEngine) pickLocked() (unit []step, wait time.Duration) {
	top := slices.MaxFunc(e.queue, func(a, b *pendingQ) int { return cmp.Compare(a.q.Priority, b.q.Priority) }).q.Priority
	var band []*pendingQ
	for _, pq := range e.queue {
		if pq.q.Priority == top {
			band = append(band, pq)
		}
	}
	unit = pick(e.cfg, e.session.Resources(), band, e.last)
	if e.cfg.Policy != SharedScan || e.draining || e.mergeWindow <= 0 {
		return unit, 0
	}
	var members []*pendingQ
	for _, st := range unit {
		members = append(members, st.members...)
	}
	oldest := slices.MinFunc(members, func(a, b *pendingQ) int { return cmp.Compare(a.seq, b.seq) })
	if len(members) < e.cfg.MaxShared && oldest.q.StopAfter == 0 {
		if open := e.mergeWindow - time.Since(oldest.arrived); open > 0 {
			return nil, open
		}
	}
	return unit, 0
}

// without returns set minus drop, in place.
func without(set, drop []*pendingQ) []*pendingQ {
	gone := make(map[*pendingQ]bool, len(drop))
	for _, pq := range drop {
		gone[pq] = true
	}
	kept := set[:0]
	for _, pq := range set {
		if !gone[pq] {
			kept = append(kept, pq)
		}
	}
	return kept
}

// serveStep runs one step — a solo query or a shared pass — and
// delivers each member's result. A non-device error fails the step's
// queries with a typed reason instead of killing the resident service,
// and is returned.
func (e *OnlineEngine) serveStep(p *sim.Proc, st step) error {
	for _, n := range st.notes {
		e.logf(p, "%s", n)
	}
	started := time.Now()
	base := len(e.queries)
	qis := make([]int, len(st.members))
	for i, pq := range st.members {
		pq.started = started
		e.queries = append(e.queries, pq.q.Query)
		e.results = append(e.results, QueryResult{})
		qis[i] = base + i
	}
	var err error
	if st.shared {
		err = e.runShared(p, qis)
	} else {
		err = e.runSingle(p, qis[0])
	}
	finished := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if st.shared {
		e.stats.SharedRiders += int64(len(st.members))
	}
	for i, pq := range st.members {
		res := e.results[qis[i]]
		if err != nil && res.ID == "" {
			res = pq.failed(ReasonInternal, err)
		}
		e.deliverLocked(pq, res, finished)
	}
	e.serving = without(e.serving, st.members)
	e.publishLocked()
	return err
}

// publishLocked refreshes the stats snapshot from the engine's
// counters. Runs on the scheduler proc with e.mu held, so readers
// never see a torn update.
func (e *OnlineEngine) publishLocked() {
	c := e.counters()
	c.DiskHighWater = max(c.DiskHighWater, e.stats.DiskHighWater)
	e.stats.Counters = c
	e.stats.VirtualNow = sim.Duration(e.session.Kernel().Now())
	// Copy the tail: the scheduler proc keeps appending to the live log
	// outside the lock, so the snapshot must not alias it.
	tail := e.out.Schedule
	if len(tail) > 100 {
		tail = tail[len(tail)-100:]
	}
	e.stats.ScheduleTail = append(e.stats.ScheduleTail[:0], tail...)
	e.stats.ScheduleDropped = e.out.ScheduleDropped
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
			e.deliverLocked(pq, pq.failed(ReasonShutdown, cause), now)
		}
	}
	e.queue, e.serving = nil, nil
}

// failed is the result of a query that fails unserved, of the given
// reason kind.
func (pq *pendingQ) failed(kind string, err error) QueryResult {
	return QueryResult{ID: pq.q.ID, Requested: pq.q.Method, Failed: true, Reason: typedReason(kind, err)}
}

// deliverLocked sends pq its one result, closes its channel and counts
// the outcome. Call with e.mu held.
func (e *OnlineEngine) deliverLocked(pq *pendingQ, res QueryResult, finished time.Time) {
	pq.ch <- OnlineResult{
		QueryResult: res, Tenant: pq.q.Tenant,
		Arrived: pq.arrived, Started: pq.started, Finished: finished,
	}
	close(pq.ch)
	if res.Failed {
		e.stats.Failed++
	} else {
		e.stats.Served++
	}
}
