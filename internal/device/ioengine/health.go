package ioengine

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// This file is the wall-clock fault-tolerance half of the engine:
// per-op deadlines, a per-device health state machine, and the circuit
// breaker that turns a wedged device into typed fast failures instead
// of an unbounded hang.
//
// The hard part of a deadline is the zombie: an op that overran it is
// still running on some goroutine and still owns the buffers its plan
// handed it. The worker therefore posts a timeout to unblock the
// submitter, then *waits out the zombie* for a bounded grace period
// before serving the next request — worker serialization guarantees no
// two ops touch the same plan buffers concurrently. Only when the
// grace also expires does the worker declare the device Failed and
// stop executing entirely, so the still-lingering zombie can never
// race a later operation. Deadline misses fail with fault.ErrTimeout
// and an open breaker with fault.ErrDeviceFailed.

// Health is a worker's position in the healthy → degraded → failed
// state machine. Deadline misses degrade; DefaultTripAfter consecutive
// misses (or one op stuck past its grace period) trip the breaker to
// Failed, which is terminal for the worker — replacement devices get
// fresh workers. Any completed operation restores Degraded to Healthy.
type Health int32

const (
	Healthy Health = iota
	Degraded
	Failed
)

func (h Health) String() string {
	switch h {
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	default:
		return "healthy"
	}
}

// DefaultTripAfter is the consecutive-timeout count that trips the
// breaker.
const DefaultTripAfter = 3

// DefaultRetry is the engine's default device-layer retry policy.
var DefaultRetry = RetryPolicy{Max: 2, Base: sim.Duration(100 * time.Millisecond)}

// RetryPolicy bounds Do's device-layer retries.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retrying.
	Max int
	// Base is the first backoff, doubled per retry, plus up to half of
	// itself in deterministic jitter. Charged as virtual time.
	Base sim.Duration
}

// Policy is an engine's wall-clock fault policy, shared by its workers.
type Policy struct {
	// OpTimeout bounds each operation's wall-clock execution; 0
	// disables deadlines (the zero Policy is the pre-deadline engine).
	OpTimeout time.Duration
	// Grace bounds how long the worker waits for a timed-out op to
	// finish before declaring the device Failed. Defaults to
	// max(5×OpTimeout, 1s).
	Grace time.Duration
	// TripAfter is the consecutive-timeout count that trips the
	// breaker (DefaultTripAfter when <= 0).
	TripAfter int
	// Retry is Do's device-layer retry policy (DefaultRetry when both
	// fields are zero).
	Retry RetryPolicy
}

// withDefaults fills the derived and defaulted fields.
func (p Policy) withDefaults() Policy {
	if p.Grace <= 0 {
		p.Grace = 5 * p.OpTimeout
		if p.Grace < time.Second {
			p.Grace = time.Second
		}
	}
	if p.TripAfter <= 0 {
		p.TripAfter = DefaultTripAfter
	}
	if p.Retry == (RetryPolicy{}) {
		p.Retry = DefaultRetry
	}
	return p
}

// notEnqueued wraps errors posted by Submit itself — the request never
// reached the queue, so Await must not decrement the queue gauge.
type notEnqueued struct{ err error }

func (e notEnqueued) Error() string { return e.err.Error() }
func (e notEnqueued) Unwrap() error { return e.err }

// execute runs one request under the engine's deadline policy. Runs on
// the worker goroutine.
func (w *Worker) execute(req request) {
	timeout := w.e.policy.OpTimeout
	t0 := w.e.now()
	if timeout <= 0 {
		err := req.op()
		t1 := w.e.now()
		w.e.record(w.name, t0, t1)
		w.opDone()
		req.c.Post(sim.Duration(t1-t0), err)
		return
	}
	done := make(chan error, 1) // buffered: a zombie's send never blocks
	go func() { done <- req.op() }()
	timer := time.NewTimer(timeout)
	select {
	case err := <-done:
		timer.Stop()
		t1 := w.e.now()
		w.e.record(w.name, t0, t1)
		w.opDone()
		req.c.Post(sim.Duration(t1-t0), err)
		return
	case <-timer.C:
	}
	// Deadline missed: degrade (or trip), fail the submitter with a
	// typed error, then wait out the zombie before the next request.
	w.timeouts.Add(1)
	w.e.flight.Record("timeout", w.name, fmt.Sprintf("op exceeded %v deadline", timeout))
	if int(w.consec.Add(1)) >= w.e.policy.TripAfter {
		w.setState(Failed)
	} else {
		w.setState(Degraded)
	}
	t1 := w.e.now()
	w.e.record(w.name, t0, t1)
	req.c.Post(sim.Duration(t1-t0),
		fmt.Errorf("%s: op exceeded %v deadline: %w", w.name, timeout, fault.ErrTimeout))
	grace := time.NewTimer(w.e.policy.Grace)
	select {
	case <-done:
		grace.Stop()
	case <-grace.C:
		// Truly stuck. Trip the breaker: no further op will execute on
		// this worker, so the lingering zombie cannot race anything.
		w.e.flight.Record("timeout", w.name, "zombie op outlived grace period")
		w.setState(Failed)
	}
}

// opDone records a completed (non-timed-out) operation: the device
// responded, so consecutive-miss tracking resets and a Degraded worker
// heals. Failed is terminal.
func (w *Worker) opDone() {
	w.consec.Store(0)
	if Health(w.state.Load()) == Degraded {
		w.setState(Healthy)
	}
}

// setState moves the health state machine, recording the transition in
// the flight recorder only when the state actually changes. Runs on
// the worker goroutine (execute) — the state machine's only writer.
func (w *Worker) setState(h Health) {
	if Health(w.state.Swap(int32(h))) != h {
		w.e.flight.Record("health", w.name, h.String())
	}
}
