package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time. It aliases time.Duration so the
// usual constants (time.Second, ...) can be used directly.
type Duration = time.Duration

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// procState tracks where a Proc is in its lifecycle.
type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateBlocked // waiting on a resource, container, queue or proc
	stateHolding // waiting for a scheduled clock event
	stateParked  // waiting for Unpark
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateHolding:
		return "holding"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Proc is a simulation process. A goroutine Proc's body runs on its
// own goroutine but only while it holds the control token, so at most
// one Proc executes at any wall-clock instant. A task (SpawnTask) has no
// goroutine: its step runs on whichever goroutine holds the token when
// the task is dispatched.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	state  procState
	resume chan struct{} // nil for a task
	task   Task          // nil for a goroutine proc
	err    error

	// waitKind and waitOn describe what a blocked proc waits for
	// ("resource" on "disk0"), joined only for deadlock reports.
	waitKind string
	waitOn   string
	waiters  []*Proc // procs blocked in Wait on this proc
}

// Name returns the name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == stateDone }

// event is a scheduled wakeup for a holding process.
type event struct {
	t    Time
	seq  int64 // tie-break for determinism
	proc *Proc
}

func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap on (t, seq). Every seq is unique, so
// the pop order is a total order independent of the heap's shape.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !q[i].before(q[up]) {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	for i := 0; ; {
		min, l := i, 2*i+1
		if l < n && q[l].before(q[min]) {
			min = l
		}
		if r := l + 1; r < n && q[r].before(q[min]) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}

// procQueue is the FIFO ready queue: a slice consumed from head, its
// live part slid to the front only when an append would grow it.
type procQueue struct {
	buf  []*Proc
	head int
}

func (q *procQueue) len() int { return len(q.buf) - q.head }

func (q *procQueue) push(p *Proc) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, p)
}

func (q *procQueue) pop() *Proc {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return p
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now     Time
	events  eventHeap
	ready   procQueue // runnable at the current time, FIFO
	yieldCh chan struct{}
	alive   int
	nextID  int
	nextSeq int64
	running bool
	procs   []*Proc
	// fault is an internal-consistency failure found by pick; Run
	// returns it.
	fault error

	// asyncState holds the external-completion plumbing (see async.go).
	asyncState

	// EventsProcessed counts kernel scheduling decisions, exposed for
	// tests and diagnostics.
	EventsProcessed int64
}

// NewKernel returns a kernel with the clock at zero and no processes.
func NewKernel() *Kernel {
	return &Kernel{
		yieldCh:    make(chan struct{}),
		asyncState: asyncState{ioNotify: make(chan struct{}, 1)},
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// newProc registers a process and queues it to run at the current time.
func (k *Kernel) newProc(name string) *Proc {
	p := &Proc{k: k, id: k.nextID, name: name, state: stateReady}
	k.nextID++
	k.alive++
	if len(k.procs) == cap(k.procs) {
		k.dropFinished()
		if len(k.procs) > cap(k.procs)/2 {
			// Mostly live: grow, so the next scan is cap/2 spawns away.
			k.procs = slices.Grow(k.procs, cap(k.procs))
		}
	}
	k.procs = append(k.procs, p)
	k.ready.push(p)
	return p
}

// dropFinished forgets processes that finished cleanly: only live ones
// (for deadlock reports) and failed ones (for Run's error) are needed.
// Called when k.procs is full, it keeps a long-running kernel's process
// list proportional to its live processes at amortised O(1) cost per
// spawn.
func (k *Kernel) dropFinished() {
	kept := k.procs[:0]
	for _, p := range k.procs {
		if p.state != stateDone || p.err != nil {
			kept = append(kept, p)
		}
	}
	clear(k.procs[len(kept):])
	k.procs = kept
}

// Spawn creates a process named name whose body is fn and schedules it
// to run at the current virtual time. Spawn may be called before Run or
// from within a running process; it must not be called from a different
// goroutine while Run is active.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := k.newProc(name)
	p.resume = make(chan struct{})
	go func() {
		<-p.resume
		defer k.finish(p)
		fn(p)
	}()
	return p
}

// Task is the body of a goroutine-free process.
type Task interface {
	// Step runs each time the task is dispatched, on the goroutine
	// holding the control token, and reports whether the task has
	// finished. A step that returns false must first have queued the
	// task for its next dispatch — with Proc.WakeAfter or
	// Resource.AcquireOrQueue — exactly as the matching blocking call
	// of a goroutine proc would have.
	Step(p *Proc) (done bool)
}

// SpawnTask creates a task named name and schedules its first step at
// the current virtual time. A task occupies exactly the ready-queue,
// event-heap and resource-waiter slots a goroutine proc would, so
// replacing a short-lived helper proc by a task leaves the schedule
// unchanged while costing no goroutine, channel or handoff. Same
// calling rules as Spawn.
func (k *Kernel) SpawnTask(name string, t Task) *Proc {
	p := k.newProc(name)
	p.task = t
	return p
}

// retire marks p finished and wakes the procs waiting on it.
func (k *Kernel) retire(p *Proc) {
	p.state = stateDone
	k.alive--
	for _, w := range p.waiters {
		k.makeReady(w)
	}
	p.waiters = nil
}

// finish runs on the process goroutine when the body returns or
// panics, and passes the token on for good.
func (k *Kernel) finish(p *Proc) {
	if r := recover(); r != nil {
		p.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
	k.retire(p)
	k.handoff(k.pick())
}

// step dispatches task p once; a panicking step finishes the task with
// the panic as its error.
func (p *Proc) step() (done bool) {
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("sim: task %q panicked: %v", p.name, r)
			done = true
		}
	}()
	return p.task.Step(p)
}

// makeReady moves a blocked process to the ready queue at the current
// time. Only call with the control token held.
func (k *Kernel) makeReady(p *Proc) {
	if p.state == stateDone || p.state == stateReady {
		return
	}
	p.state = stateReady
	p.waitKind, p.waitOn = "", ""
	k.ready.push(p)
}

// pick makes scheduling decisions until one names a goroutine proc,
// which it returns with the state set to running; nil means nothing is
// runnable now and Run must decide (wall-clock I/O wait, termination or
// deadlock). Each decision first integrates posted completions, then
// takes the ready queue before the event heap;
// tasks are stepped inline. pick runs on whichever goroutine holds the
// control token — Run's or a yielding proc's — so every scheduling
// decision goes through this one routine.
func (k *Kernel) pick() *Proc {
	for {
		// Integrate any external completions posted since the last
		// decision, so awaiting procs compete for the token as soon as
		// their I/O is done. No-op (and allocation-free) when the
		// backend never starts external operations.
		if k.ioPending > 0 {
			k.drainIO()
		}
		var p *Proc
		switch {
		case k.fault != nil:
			return nil
		case k.ready.len() > 0:
			p = k.ready.pop()
		case len(k.events) > 0:
			e := k.events.pop()
			if e.t < k.now {
				k.fault = fmt.Errorf("sim: time ran backwards: %v < %v", e.t, k.now)
				return nil
			}
			k.now = e.t
			p = e.proc
		default:
			return nil
		}
		if p.state == stateDone {
			continue
		}
		k.EventsProcessed++
		p.state = stateRunning
		if p.task == nil {
			return p
		}
		if p.step() {
			k.retire(p)
		}
	}
}

// handoff gives the token to next, or back to Run when next is nil.
func (k *Kernel) handoff(next *Proc) {
	if next == nil {
		k.yieldCh <- struct{}{}
	} else {
		next.resume <- struct{}{}
	}
}

// block gives up the token and waits to get it back. The caller must
// have set p.state and enqueued p somewhere it will be woken from
// (event heap, resource waiters, ...). The yielding proc makes the
// next scheduling decision itself and resumes its successor directly;
// when that successor is p — its own wakeup is next — it keeps running
// with no goroutine switch at all.
func (p *Proc) block() {
	if p.task != nil {
		panic(fmt.Sprintf("sim: task %q called a blocking primitive", p.name))
	}
	k := p.k
	next := k.pick()
	if next == p {
		return
	}
	k.handoff(next)
	<-p.resume
}

// blockOn records what p waits for, sets its state and blocks.
func (p *Proc) blockOn(state procState, kind, on string) {
	p.state = state
	p.waitKind, p.waitOn = kind, on
	p.block()
}

// schedule queues p's wakeup d of virtual time from now.
func (p *Proc) schedule(d Duration) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.nextSeq++
	k.events.push(event{t: k.now + Time(d), seq: k.nextSeq, proc: p})
	p.state = stateHolding
	p.waitKind, p.waitOn = "hold", ""
}

// Hold advances the process by d of virtual time. Negative durations
// are treated as zero. Other processes run during the hold, which is
// how overlapping I/O on independent devices overlaps in virtual time.
func (p *Proc) Hold(d Duration) {
	p.schedule(d)
	p.block()
}

// WakeAfter is the task form of Hold: it queues task p's next dispatch
// d of virtual time from now, and the step must then return false.
func (p *Proc) WakeAfter(d Duration) {
	if p.task == nil {
		panic(fmt.Sprintf("sim: WakeAfter on goroutine proc %q; use Hold", p.name))
	}
	p.schedule(d)
}

// Park blocks p until another process or task calls Unpark(p). what
// names the wait in deadlock reports.
func (p *Proc) Park(what string) {
	p.blockOn(stateParked, what, "")
}

// Unpark makes a parked p runnable at the current virtual time. Call
// with the control token held.
func (p *Proc) Unpark() {
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: unpark of %q, which is %s", p.name, p.state))
	}
	p.k.makeReady(p)
}

// Wait blocks until other's body has returned. Waiting on a finished
// process returns immediately. Returns the other process's error.
func (p *Proc) Wait(other *Proc) error {
	if other.state != stateDone {
		other.waiters = append(other.waiters, p)
		p.blockOn(stateBlocked, "wait", other.name)
	}
	return other.err
}

// WaitAll waits for every process in others, returning the first
// non-nil error encountered (all processes are still waited for).
func (p *Proc) WaitAll(others ...*Proc) error {
	var first error
	for _, o := range others {
		if err := p.Wait(o); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ErrDeadlock is wrapped by the error Run returns when live processes
// remain but none can make progress.
var ErrDeadlock = errors.New("sim: deadlock")

// Run drives the simulation until every process has finished. It
// returns an error if any process panicked or if the simulation
// deadlocks. Run must be called exactly once, from the goroutine that
// built the kernel.
//
// The processes pass the control token among themselves (see pick and
// block); Run holds it only at the start and whenever pick finds
// nothing runnable. There it waits in wall-clock time for external
// completions, or reports termination or deadlock.
func (k *Kernel) Run() error {
	if k.running {
		return errors.New("sim: Run called twice")
	}
	k.running = true
	for {
		if p := k.pick(); p != nil {
			k.handoff(p)
			<-k.yieldCh
			continue
		}
		switch {
		case k.fault != nil:
			return k.fault
		case k.ioPending > 0:
			// Every live proc is blocked and no event is pending, but
			// real I/O is in flight: wait for it in wall-clock time.
			// This is the moment independent device workers overlap.
			k.waitIO()
		case k.alive == 0:
			return k.collectErrors()
		default:
			return k.deadlockError()
		}
	}
}

func (k *Kernel) collectErrors() error {
	var errs []error
	for _, p := range k.procs {
		if p.err != nil {
			errs = append(errs, p.err)
		}
	}
	return errors.Join(errs...)
}

func (k *Kernel) deadlockError() error {
	var blocked []string
	for _, p := range k.procs {
		if p.state != stateDone {
			on := p.waitKind
			if p.waitOn != "" {
				on += ":" + p.waitOn
			}
			blocked = append(blocked, fmt.Sprintf("%s(%s on %s)", p.name, p.state, on))
		}
	}
	sort.Strings(blocked)
	err := fmt.Errorf("%w at t=%v: %d processes stuck: %s",
		ErrDeadlock, k.now, len(blocked), strings.Join(blocked, ", "))
	if pe := k.collectErrors(); pe != nil {
		err = errors.Join(err, pe)
	}
	return err
}
