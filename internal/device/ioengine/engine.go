// Package ioengine runs real OS I/O off the simulation's control
// token: every device owns a worker goroutine with a bounded request
// queue, a proc submits an operation and yields the token through
// sim.Proc.StartIO/Await, and independent devices' transfers overlap
// in wall-clock time while the kernel keeps virtual time deterministic.
//
// The engine also keeps the honest side of the books: per-device
// wall-clock busy intervals (merged into an overlap fraction that
// mirrors the virtual-time metric in internal/obs) and a per-device
// queue-depth gauge. All gauge updates run on token-holding
// goroutines; interval recording is the only mutex-guarded state
// touched by workers.
package ioengine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// defaultQueueLen bounds each worker's request queue. Submissions
// beyond it block the submitting goroutine in wall-clock time until
// the worker drains; with the submit-then-await discipline every
// device op uses, depth is bounded by the number of live procs anyway.
const defaultQueueLen = 64

// ErrClosed is returned for operations submitted to a closed worker.
var ErrClosed = errors.New("ioengine: worker closed")

// Engine owns the device workers of one backend instance and
// aggregates their wall-clock activity.
type Engine struct {
	depth  int
	policy Policy
	flight *obs.FlightRecorder

	mu      sync.Mutex
	start   time.Time
	started bool
	busy    map[string][]wallInterval // device name -> closed busy intervals
	workers []*Worker                 // in creation order; same-name later wins
}

// wallInterval is one worker-side busy window, relative to the
// engine's first submission.
type wallInterval struct{ s, t time.Duration }

// New returns an engine whose workers queue up to depth requests
// (defaultQueueLen when depth <= 0), with the default fault policy
// (no deadline, device-layer retries enabled).
func New(depth int) *Engine {
	if depth <= 0 {
		depth = defaultQueueLen
	}
	return &Engine{depth: depth, policy: Policy{}.withDefaults(), busy: map[string][]wallInterval{}}
}

// SetPolicy replaces the engine's fault policy. Call before creating
// workers; workers read the policy without locking.
func (e *Engine) SetPolicy(p Policy) { e.policy = p.withDefaults() }

// SetFlight attaches a flight recorder: workers record timeouts,
// health transitions and device-layer retries into it. Call before
// creating workers; like the policy, workers read it without locking.
// A nil recorder (the default) records nothing.
func (e *Engine) SetFlight(f *obs.FlightRecorder) { e.flight = f }

// now returns wall time relative to the engine's epoch, starting the
// epoch on first use.
func (e *Engine) now() time.Duration {
	e.mu.Lock()
	if !e.started {
		e.start, e.started = time.Now(), true
	}
	d := time.Since(e.start)
	e.mu.Unlock()
	return d
}

func (e *Engine) record(device string, s, t time.Duration) {
	e.mu.Lock()
	e.busy[device] = append(e.busy[device], wallInterval{s, t})
	e.mu.Unlock()
}

// request is one queued operation.
type request struct {
	c  *sim.Completion
	op func() error
}

// Worker is one device's I/O goroutine. Obtain it from Engine.Worker,
// submit through Do (or Submit/Await for split-phase use), and Close
// it when the device closes.
type Worker struct {
	e    *Engine
	name string
	reqs chan request
	done chan struct{}

	// Health state: written only by the worker goroutine, read from
	// token-holding goroutines, so it lives in atomics. Metrics are
	// synced from these on the token side (the obs registry is
	// single-threaded).
	state    atomic.Int32 // Health
	consec   atomic.Int64 // consecutive deadline misses
	timeouts atomic.Int64 // total deadline misses

	// retries counts device-layer retries performed by Do. Written on
	// the token side but read by health snapshots from scrape
	// goroutines, so it is atomic.
	retries atomic.Int64

	// Token-guarded (only ever touched while the submitting proc holds
	// the simulation's control token, which orders the accesses).
	queued      int
	closed      bool
	timeoutsPub int64 // timeouts already pushed to the counter
	rng         *rand.Rand
	gauge       *obs.Gauge
	healthGauge *obs.Gauge
	timeoutCtr  *obs.Counter
	retryCtr    *obs.Counter
}

// Worker creates a worker goroutine for the named device. Names are
// labels, not keys: a second worker with the same name is a distinct
// queue whose wall intervals merge into the same per-device series —
// and a fresh worker starts Healthy, which is how replacement devices
// built after a trip escape their predecessor's breaker.
func (e *Engine) Worker(name string) *Worker {
	h := fnv.New64a()
	h.Write([]byte(name))
	w := &Worker{e: e, name: name, reqs: make(chan request, e.depth), done: make(chan struct{}),
		rng: rand.New(rand.NewSource(int64(h.Sum64())))}
	e.mu.Lock()
	e.workers = append(e.workers, w)
	e.mu.Unlock()
	go w.run()
	return w
}

// DeviceHealth is one worker's health snapshot, for live /health
// reporting.
type DeviceHealth struct {
	Device   string
	State    Health
	Timeouts int64
	Retries  int64
}

// DeviceHealths snapshots every device's current health, sorted by
// name. When a device was replaced after a breaker trip (a second
// worker under the same name), the newest worker's state wins — it is
// the device currently serving traffic. Safe from any goroutine.
func (e *Engine) DeviceHealths() []DeviceHealth {
	e.mu.Lock()
	workers := append([]*Worker(nil), e.workers...)
	e.mu.Unlock()
	byName := map[string]DeviceHealth{}
	var order []string
	for _, w := range workers {
		if _, ok := byName[w.name]; !ok {
			order = append(order, w.name)
		}
		byName[w.name] = DeviceHealth{
			Device: w.name, State: w.Health(),
			Timeouts: w.timeouts.Load(), Retries: w.retries.Load(),
		}
	}
	sort.Strings(order)
	out := make([]DeviceHealth, 0, len(order))
	for _, n := range order {
		out = append(out, byName[n])
	}
	return out
}

func (w *Worker) run() {
	defer close(w.done)
	for req := range w.reqs {
		if Health(w.state.Load()) == Failed {
			// Breaker open: fail fast without touching the device (a
			// timed-out zombie op may still own its buffers).
			req.c.Post(0, fmt.Errorf("%s: %w", w.name, fault.ErrDeviceFailed))
			continue
		}
		w.execute(req)
	}
}

// Name returns the worker's device label.
func (w *Worker) Name() string { return w.name }

// Health returns the worker's current health state. Safe from any
// goroutine.
func (w *Worker) Health() Health {
	return Health(w.state.Load())
}

// Timeouts returns the number of operations that missed the deadline.
func (w *Worker) Timeouts() int64 {
	return w.timeouts.Load()
}

// Retries returns the number of device-layer retries Do performed.
func (w *Worker) Retries() int64 {
	return w.retries.Load()
}

// SetMetrics registers the worker's gauges and counters in reg (nil
// detaches): queue depth, health state, deadline misses, and
// device-layer retries.
func (w *Worker) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		w.gauge, w.healthGauge, w.timeoutCtr, w.retryCtr = nil, nil, nil, nil
		return
	}
	l := obs.A("device", w.name)
	w.gauge = reg.Gauge("iodev_queue_depth",
		"Requests queued or in flight on a device I/O worker.", l)
	w.healthGauge = reg.Gauge("iodev_health",
		"Device worker health: 0 healthy, 1 degraded, 2 failed.", l)
	w.timeoutCtr = reg.Counter("iodev_timeouts_total",
		"Operations that missed the per-op deadline.", l)
	w.retryCtr = reg.Counter("iodev_op_retries_total",
		"Device-layer retries after timeouts or transient errors.", l)
}

// syncMetrics publishes worker-side health state into the registry.
// Must run on a token-holding goroutine.
func (w *Worker) syncMetrics() {
	w.healthGauge.Set(float64(w.state.Load()))
	if t := w.timeouts.Load(); t > w.timeoutsPub {
		w.timeoutCtr.Add(float64(t - w.timeoutsPub))
		w.timeoutsPub = t
	}
}

// Submit enqueues op on the worker and returns its completion. The
// caller must hold the control token and must eventually Await the
// result through the same worker's Await (which maintains the queue
// gauge). Submission blocks in wall-clock time when the queue is full.
// On a closed worker or an open breaker the completion fails
// immediately with ErrClosed / ErrDeviceFailed through the normal
// completion path, so Await semantics hold for the caller.
func (w *Worker) Submit(p *sim.Proc, op func() error) *sim.Completion {
	c := p.StartIO(w.name)
	if w.closed {
		c.Post(0, notEnqueued{fmt.Errorf("%s: %w", w.name, ErrClosed)})
		return c
	}
	if Health(w.state.Load()) == Failed {
		c.Post(0, notEnqueued{fmt.Errorf("%s: %w", w.name, fault.ErrDeviceFailed)})
		return c
	}
	w.queued++
	w.gauge.Set(float64(w.queued))
	w.reqs <- request{c: c, op: op}
	return c
}

// Await reaps a completion submitted on this worker, yielding the
// token until the operation is done and its virtual time charged.
func (w *Worker) Await(p *sim.Proc, c *sim.Completion) (sim.Duration, error) {
	d, err := p.Await(c)
	var ne notEnqueued
	if !errors.As(err, &ne) {
		w.queued--
		w.gauge.Set(float64(w.queued))
	}
	w.syncMetrics()
	return d, err
}

// Do submits op and awaits it: the calling proc yields the control
// token while the worker performs the operation, so other procs (and
// other devices' workers) run meanwhile. Timed-out and transient
// failures are retried per the engine's RetryPolicy with exponential
// backoff plus deterministic jitter, charged as virtual time. Returns
// the total measured wall-clock duration, which Await has already
// charged to virtual time.
func (w *Worker) Do(p *sim.Proc, op func() error) (sim.Duration, error) {
	total, err := w.Await(p, w.Submit(p, op))
	pol := w.e.policy.Retry
	backoff := pol.Base
	// Deadline misses and transient faults are retried, but never once
	// the breaker has tripped: a Failed device gets no further traffic.
	for attempt := 0; attempt < pol.Max && err != nil && fault.Acts(fault.Retry, err) &&
		Health(w.state.Load()) != Failed; attempt++ {
		p.Hold(backoff + w.jitter(backoff))
		w.retries.Add(1)
		w.retryCtr.Inc()
		w.e.flight.RecordV(p.Now(), "retry", w.name,
			fmt.Sprintf("device-layer retry %d after %v", attempt+1, err))
		d, e := w.Await(p, w.Submit(p, op))
		total += d
		err = e
		backoff *= 2
	}
	return total, err
}

// jitter derives a deterministic backoff perturbation in [0, b/2) from
// the worker's seeded source. Token-guarded like the other Do state.
func (w *Worker) jitter(b sim.Duration) sim.Duration {
	if b <= 1 {
		return 0
	}
	return sim.Duration(w.rng.Int63n(int64(b / 2)))
}

// Close stops the worker after draining queued requests and waits for
// it to exit. Safe to call twice and on a nil worker. The caller must
// ensure (by the submit-then-await discipline) that no submission
// races the close.
func (w *Worker) Close() {
	if w == nil || w.closed {
		return
	}
	w.closed = true
	close(w.reqs)
	<-w.done
}

// DeviceWall is one device's total wall-clock busy time.
type DeviceWall struct {
	Device string
	Busy   time.Duration
}

// WallStats summarizes the engine's real-time device activity.
type WallStats struct {
	// PerDevice lists merged busy time per device, sorted by name.
	PerDevice []DeviceWall
	// Busy is the sum over devices of merged busy time.
	Busy time.Duration
	// Union is the wall time during which at least one device was busy.
	Union time.Duration
}

// Overlap is the fraction of device busy time that ran concurrently
// with another device: (Busy − Union) / Busy. Zero when devices took
// strict turns — which is exactly what the pre-async file backend
// measured — approaching 1 as transfers fully overlap.
func (s WallStats) Overlap() float64 {
	if s.Busy <= 0 {
		return 0
	}
	return float64(s.Busy-s.Union) / float64(s.Busy)
}

// WallStats snapshots the engine's wall-clock accounting. Intended for
// after-run reporting; it is safe to call concurrently with workers.
func (e *Engine) WallStats() WallStats {
	e.mu.Lock()
	perDev := make(map[string][]wallInterval, len(e.busy))
	var all []wallInterval
	for dev, ivs := range e.busy {
		perDev[dev] = append([]wallInterval(nil), ivs...)
		all = append(all, ivs...)
	}
	e.mu.Unlock()

	var out WallStats
	names := make([]string, 0, len(perDev))
	for dev := range perDev {
		names = append(names, dev)
	}
	sort.Strings(names)
	for _, dev := range names {
		busy := mergedTotal(perDev[dev])
		out.PerDevice = append(out.PerDevice, DeviceWall{Device: dev, Busy: busy})
		out.Busy += busy
	}
	out.Union = mergedTotal(all)
	return out
}

// PublishMetrics exports the wall-clock stats into reg as gauges, one
// busy-seconds series per device plus the overlap fraction.
func (e *Engine) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := e.WallStats()
	for _, d := range st.PerDevice {
		reg.Gauge("iodev_wall_busy_seconds",
			"Wall-clock time the device's worker spent in OS I/O.",
			obs.A("device", d.Device)).Set(d.Busy.Seconds())
	}
	reg.Gauge("iodev_wall_overlap_fraction",
		"Fraction of wall-clock device busy time overlapped across devices.").Set(st.Overlap())
}

// mergedTotal sorts, coalesces and sums a set of intervals.
func mergedTotal(ivs []wallInterval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].s != ivs[j].s {
			return ivs[i].s < ivs[j].s
		}
		return ivs[i].t < ivs[j].t
	})
	total := time.Duration(0)
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.s <= cur.t {
			if v.t > cur.t {
				cur.t = v.t
			}
			continue
		}
		total += cur.t - cur.s
		cur = v
	}
	return total + (cur.t - cur.s)
}
