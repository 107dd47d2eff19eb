package sim

import "errors"

// This file adds cooperative cancellation to the kernel. Cancel may be
// called from any goroutine (like Completion.Post); the kernel
// integrates the request before its next scheduling decision. From
// that point on:
//
//   - every outstanding external completion is aborted: its Await
//     returns immediately with the cancel cause, and the worker's late
//     Post (it may still be executing the operation) is absorbed
//     silently instead of tripping the double-post panic;
//   - StartIO on a cancelled kernel returns an already-aborted
//     completion, so submit paths fail fast without reaching a device;
//   - every proc can observe the cause via Proc.CancelCause and unwind
//     through its normal error path.
//
// Cancellation is cooperative, not preemptive: procs blocked on
// queues, containers or resources are not yanked out of their wait —
// they wake when their counterpart's unwinding releases them, which
// the join layer's poison/drain discipline guarantees. Virtual-time
// holds cost no wall-clock time, so a cancelled simulation drains as
// fast as its procs can observe the cause.

// ErrCancelled is the default cancellation cause, and the sentinel
// wrapped by causes the kernel synthesizes.
var ErrCancelled = errors.New("sim: cancelled")

// Cancel requests cancellation of the whole simulation with the given
// cause (ErrCancelled when nil). Safe to call from any goroutine, any
// number of times; the first cause wins. Calling Cancel before Run is
// allowed: the kernel integrates it on its first iteration.
func (k *Kernel) Cancel(cause error) {
	if cause == nil {
		cause = ErrCancelled
	}
	k.cancelMu.Lock()
	if k.cancelReq == nil {
		k.cancelReq = cause
	}
	k.cancelMu.Unlock()
	k.cancelPending.Store(true)
	select {
	case k.ioNotify <- struct{}{}:
	default:
	}
}

// CancelCause returns the integrated cancellation cause, or nil while
// the kernel has not (yet) observed a Cancel. Call only with the
// control token held (from a running proc, or before or after Run) —
// the token handoff orders the access.
func (k *Kernel) CancelCause() error { return k.cancelCause }

// CancelCause returns the kernel's cancellation cause, or nil. Must be
// called from p while it holds the control token.
func (p *Proc) CancelCause() error { return p.k.cancelCause }

// integrateCancel runs with the control token held: it publishes the cause
// and aborts every outstanding external completion so io-blocked procs
// wake with the cause instead of waiting for workers.
func (k *Kernel) integrateCancel() {
	k.cancelPending.Store(false)
	k.cancelMu.Lock()
	cause := k.cancelReq
	k.cancelMu.Unlock()
	if k.cancelCause != nil || cause == nil {
		return
	}
	k.cancelCause = cause
	for c := range k.ioOutstanding {
		c.posted, c.aborted = true, true
		c.err = cause
		k.ioPending--
		if c.waiter != nil {
			k.makeReady(c.waiter)
			c.waiter = nil
		}
		delete(k.ioOutstanding, c)
	}
}
