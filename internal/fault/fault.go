// Package fault provides deterministic, seeded fault schedules for the
// simulated tape and disk devices and for the file backend's syscalls.
// A Schedule decides, per device operation, whether the operation
// stalls, returns corrupted data, fails transiently (recovering after a
// bounded number of retries), fails with a hard media error, or finds
// its device permanently dead — and, for an operation on real files,
// whether the syscalls under it fail, tear, flip a stored bit or stall
// in wall-clock time.
//
// Schedules are ordered and deterministic: rules are evaluated in
// insertion order, never via map iteration, so the same schedule
// produces the same decisions for the same operation sequence — the
// foundation of the repo's same-seed reproducibility guarantee.
package fault

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Op describes one device operation about to execute, as seen by an
// Injector.
type Op struct {
	// Device names the device: "tape:R", "tape:S", "disk" (array-wide
	// transfer), or "disk0", "disk1", ... (per-drive placement check).
	Device string
	// Write is true for writes/appends, false for reads.
	Write bool
	// Addr and N give the block range [Addr, Addr+N) the operation
	// covers, in the device's address space.
	Addr, N int64
	// Now is the current virtual time.
	Now sim.Time
	// OS is true for an operation the file backend runs through real
	// files. Only such operations match OS-level rules.
	OS bool
}

// Decision is an Injector's verdict on one operation. Zero value means
// "proceed normally".
type Decision struct {
	// Err, if non-nil, fails the operation (wrapping ErrTransient,
	// ErrMedia, ErrDeviceLost or ErrDriveLost as appropriate).
	Err error
	// Corrupt asks the device to flip bits in the *delivered* copy of
	// the data. The stored data stays intact, so a re-read recovers —
	// this models transient ECC misses, unlike an OS flip decision,
	// which damages the stored record itself.
	Corrupt bool
	// Stall adds a device hiccup of the given virtual duration before
	// the operation proceeds (charged while the device is held).
	Stall sim.Duration
	// OS is the verdict on the syscalls under the operation. It is
	// decided only for an Op with OS set, and only when Err is nil.
	OS OSDecision

	kind *kind // the device-level kind that fired, nil if none
}

// OSDecision is the verdict on the syscalls under one file operation.
// It is decided while the deciding process holds the simulation token
// and applied later, by the file layer, on its worker goroutine; that
// keeps Schedule state single-threaded although the syscalls run
// off-token. The zero value means "proceed normally".
type OSDecision struct {
	// Err, if non-nil, fails the operation with an EIO-style error
	// (wrapping ErrTransient, so device-layer retries apply).
	Err error
	// Torn asks the file layer to write only a prefix of one record and
	// then report success — a torn write that only checksum
	// verification can catch later.
	Torn bool
	// Flip asks the file layer to flip one bit in the buffer as it
	// crosses the syscall boundary: stored corruption on writes.
	Flip bool
	// Stall delays the operation by a *wall-clock* duration on the
	// device worker, exercising I/O deadlines and health tracking.
	Stall time.Duration

	kind *kind // the OS-level kind that fired, nil if none
}

// Zero reports whether the decision asks for nothing.
func (d OSDecision) Zero() bool {
	return d.Err == nil && !d.Torn && !d.Flip && d.Stall == 0
}

// Injector decides the fate of device operations. Implementations must
// be deterministic functions of the operation sequence.
type Injector interface {
	Decide(op Op) Decision
}

// scope is the set of operations a kind's rules match once active.
type scope uint8

const (
	readsAt  scope = iota // reads covering ADDR
	reads                 // any read
	writesAt              // writes covering ADDR
	opsAt                 // reads and writes covering ADDR
	allOps                // every operation
)

// form is a kind's directive syntax in the Parse grammar.
type form uint8

const (
	addrForm  form = iota // DEV:ADDR[:COUNT], or DEV:ADDR when unbounded
	durForm               // DEV:DUR[:COUNT]
	diskForm              // N@TIME, on device diskN
	driveForm             // DEV@TIME
)

// kind is one row of the fault taxonomy.
type kind struct {
	key       string // directive key in the Parse grammar
	form      form
	unbounded bool // fires forever; the directive takes no COUNT
	os        bool // fires at the file backend's syscall layer
	scope     scope
	label     string // outcome label of fault_decisions_total
	verdict   func(r *rule) Decision
}

// kinds is the fault taxonomy: Parse, String, Decide and Instrument all
// read it. Its order is the registration order of Instrument's
// counters.
var kinds = []*kind{
	{key: "transient", scope: readsAt, label: "transient", verdict: func(r *rule) Decision {
		return Decision{Err: fmt.Errorf("%w: injected transient read error at block %d", ErrTransient, r.addr)}
	}},
	{key: "hard", unbounded: true, scope: readsAt, label: "media", verdict: func(r *rule) Decision {
		return Decision{Err: fmt.Errorf("%w: injected hard media error at block %d", ErrMedia, r.addr)}
	}},
	{key: "diskfail", form: diskForm, unbounded: true, scope: allOps, label: "device-lost",
		verdict: func(*rule) Decision { return Decision{Err: ErrDeviceLost} }},
	{key: "drivefail", form: driveForm, unbounded: true, scope: allOps, label: "drive-lost",
		verdict: func(*rule) Decision { return Decision{Err: ErrDriveLost} }},
	{key: "corrupt", scope: readsAt, label: "corrupt",
		verdict: func(*rule) Decision { return Decision{Corrupt: true} }},
	{key: "stall", form: durForm, scope: reads, label: "stall",
		verdict: func(r *rule) Decision { return Decision{Stall: r.dur} }},
	{key: "oserr", os: true, scope: opsAt, label: "os-error", verdict: func(r *rule) Decision {
		return Decision{OS: OSDecision{Err: fmt.Errorf("%w: injected OS I/O error at block %d", ErrTransient, r.addr)}}
	}},
	{key: "torn", os: true, scope: writesAt, label: "torn-write",
		verdict: func(*rule) Decision { return Decision{OS: OSDecision{Torn: true}} }},
	{key: "oswait", form: durForm, os: true, scope: allOps, label: "os-stall",
		verdict: func(r *rule) Decision { return Decision{OS: OSDecision{Stall: r.dur}} }},
	{key: "flip", os: true, scope: writesAt, label: "flip-stored",
		verdict: func(*rule) Decision { return Decision{OS: OSDecision{Flip: true}} }},
}

// kindOf returns the kind whose directive key is key, or nil.
func kindOf(key string) *kind {
	for _, k := range kinds {
		if k.key == key {
			return k
		}
	}
	return nil
}

// rule is one entry of a Schedule. Rules fire in insertion order; the
// first matching active rule of a level decides that level's verdict
// (and spends one of its remaining count, if bounded).
type rule struct {
	k      *kind
	device string
	addr   int64         // the block an address-scoped rule covers
	dur    time.Duration // stall length (virtual for stall, wall for oswait)
	at     sim.Time      // rule activates at this virtual time
	count  int           // remaining firings; < 0 means unbounded
}

// matches reports whether the rule applies to op.
func (r *rule) matches(op Op) bool {
	if r.count == 0 || r.k.os && !op.OS || r.device != op.Device || op.Now < r.at {
		return false
	}
	switch r.k.scope {
	case allOps:
		return true
	case reads:
		return !op.Write
	case readsAt:
		if op.Write {
			return false
		}
	case writesAt:
		if !op.Write {
			return false
		}
	}
	return op.Addr <= r.addr && r.addr < op.Addr+op.N
}

// Schedule is a deterministic ordered fault schedule implementing
// Injector. The zero value injects nothing; Parse and Random build
// non-empty ones.
type Schedule struct {
	rules []*rule
}

// Decide implements Injector. The device verdict comes from the first
// matching device-level rule; when it fails the operation, the OS level
// is not consulted and its rules keep their firings.
func (s *Schedule) Decide(op Op) Decision {
	if s == nil {
		return Decision{}
	}
	d := s.fire(op, false)
	if d.Err == nil && op.OS {
		d.OS = s.fire(op, true).OS
	}
	return d
}

// fire spends the first matching active rule of one level and returns
// its verdict.
func (s *Schedule) fire(op Op, os bool) Decision {
	for _, r := range s.rules {
		if r.k.os != os || !r.matches(op) {
			continue
		}
		if r.count > 0 {
			r.count--
		}
		d := r.k.verdict(r)
		if os {
			d.OS.kind = r.k
		} else {
			d.kind = r.k
		}
		return d
	}
	return Decision{}
}

// Len returns the number of rules.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rules)
}
