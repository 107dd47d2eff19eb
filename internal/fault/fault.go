// Package fault provides deterministic, seeded fault schedules for the
// simulated tape and disk devices. A Schedule decides, per device
// operation, whether the operation stalls, returns corrupted data,
// fails transiently (recovering after a bounded number of retries),
// fails with a hard media error, or finds its device permanently dead.
//
// Schedules are ordered and deterministic: rules are evaluated in
// insertion order, never via map iteration, so the same schedule
// produces the same decisions for the same operation sequence — the
// foundation of the repo's same-seed reproducibility guarantee.
package fault

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Sentinel errors classifying injected faults. Device layers wrap
// these; recovery layers match them with errors.Is.
var (
	// ErrTransient marks a fault that a retry may clear (e.g. a tape
	// read error that succeeds after repositioning).
	ErrTransient = errors.New("transient device error")
	// ErrMedia marks a hard, unrecoverable media error: the data at
	// that address is gone and retries cannot help.
	ErrMedia = errors.New("unrecoverable media error")
	// ErrDeviceLost marks a permanently failed disk: every extent on
	// it is lost and the device serves no further requests.
	ErrDeviceLost = errors.New("device lost")
	// ErrDriveLost marks a permanently failed tape drive: the
	// transport is dead, though the cartridge itself survives and can
	// be mounted elsewhere.
	ErrDriveLost = errors.New("tape drive lost")
)

// IsTransient reports whether err stems from a retryable fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

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
}

// Decision is an Injector's verdict on one operation. Zero value means
// "proceed normally".
type Decision struct {
	// Err, if non-nil, fails the operation (wrapping ErrTransient,
	// ErrMedia, ErrDeviceLost or ErrDriveLost as appropriate).
	Err error
	// Corrupt asks the device to flip bits in the *delivered* copy of
	// the data. The stored data stays intact, so a re-read recovers —
	// this models transient ECC misses, unlike Media.Corrupt which
	// damages the medium itself.
	Corrupt bool
	// Stall adds a device hiccup of the given virtual duration before
	// the operation proceeds (charged while the device is held).
	Stall sim.Duration
}

// Injector decides the fate of device operations. Implementations must
// be deterministic functions of the operation sequence.
type Injector interface {
	Decide(op Op) Decision
}

// Decide consults inj, tolerating a nil injector.
func Decide(inj Injector, op Op) Decision {
	if inj == nil {
		return Decision{}
	}
	return inj.Decide(op)
}

// ruleKind enumerates the fault taxonomy.
type ruleKind int

const (
	kindTransient ruleKind = iota
	kindHard
	kindCorrupt
	kindStall
	kindDeviceLost
	kindDriveLost

	// OS-level kinds fire at the syscall layer of the file backend —
	// consulted through DecideOS, never through Decide — so one spec
	// string can drive both the simulated devices and real files.
	kindOSErr
	kindTornWrite
	kindWallStall
	kindFlipStored
)

// rule is one entry of a Schedule. Rules fire in insertion order; the
// first matching active rule decides the operation (and spends one of
// its remaining count, if bounded).
type rule struct {
	kind   ruleKind
	device string   // "" matches any device
	addr   int64    // start of matched address window
	n      int64    // window length; 0 with at==0 means any address
	at     sim.Time // rule activates at this virtual time
	count  int      // remaining firings; < 0 means unbounded
	stall  sim.Duration
	wall   time.Duration // wall-clock stall for kindWallStall
	err    error         // cause attached to transient/hard decisions
}

// osLevel reports whether the rule fires at the OS (file) layer rather
// than the device model layer.
func (r *rule) osLevel() bool {
	switch r.kind {
	case kindOSErr, kindTornWrite, kindWallStall, kindFlipStored:
		return true
	}
	return false
}

// matches reports whether the rule applies to op.
func (r *rule) matches(op Op) bool {
	if r.count == 0 {
		return false
	}
	if r.device != "" && r.device != op.Device {
		return false
	}
	if op.Now < r.at {
		return false
	}
	// Loss rules apply to every operation once active; the others only
	// to reads covering the address window.
	if r.kind == kindDeviceLost || r.kind == kindDriveLost {
		return true
	}
	if op.Write {
		return false
	}
	if r.n > 0 && (r.addr >= op.Addr+op.N || r.addr+r.n <= op.Addr) {
		return false
	}
	return true
}

// Schedule is a deterministic ordered fault schedule implementing
// Injector. The zero value injects nothing; builder methods append
// rules.
type Schedule struct {
	rules []*rule
}

// Decide implements Injector.
func (s *Schedule) Decide(op Op) Decision {
	if s == nil {
		return Decision{}
	}
	for _, r := range s.rules {
		if r.osLevel() || !r.matches(op) {
			continue
		}
		if r.count > 0 {
			r.count--
		}
		switch r.kind {
		case kindTransient:
			return Decision{Err: fmt.Errorf("%w: %s", ErrTransient, r.err)}
		case kindHard:
			return Decision{Err: fmt.Errorf("%w: %s", ErrMedia, r.err)}
		case kindCorrupt:
			return Decision{Corrupt: true}
		case kindStall:
			return Decision{Stall: r.stall}
		case kindDeviceLost:
			return Decision{Err: ErrDeviceLost}
		case kindDriveLost:
			return Decision{Err: ErrDriveLost}
		}
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

// AddTransient makes the next count reads covering [addr, addr+1) on
// device fail with a retryable error; the count+1'th succeeds —
// modelling a tape error that clears after repositioning.
func (s *Schedule) AddTransient(device string, addr int64, count int) *Schedule {
	if count <= 0 {
		count = 1
	}
	s.rules = append(s.rules, &rule{
		kind: kindTransient, device: device, addr: addr, n: 1, count: count,
		err: fmt.Errorf("injected transient read error at block %d", addr),
	})
	return s
}

// AddHard makes every read covering [addr, addr+1) on device fail with
// an unrecoverable media error.
func (s *Schedule) AddHard(device string, addr int64) *Schedule {
	s.rules = append(s.rules, &rule{
		kind: kindHard, device: device, addr: addr, n: 1, count: -1,
		err: fmt.Errorf("injected hard media error at block %d", addr),
	})
	return s
}

// AddCorrupt makes the next count reads covering [addr, addr+1) on
// device deliver bit-flipped data. The stored blocks stay intact, so
// retries recover once the count is spent.
func (s *Schedule) AddCorrupt(device string, addr int64, count int) *Schedule {
	if count <= 0 {
		count = 1
	}
	s.rules = append(s.rules, &rule{
		kind: kindCorrupt, device: device, addr: addr, n: 1, count: count,
	})
	return s
}

// AddStall makes the next count reads on device (any address) stall
// for d before proceeding.
func (s *Schedule) AddStall(device string, d sim.Duration, count int) *Schedule {
	if count <= 0 {
		count = 1
	}
	s.rules = append(s.rules, &rule{kind: kindStall, device: device, count: count, stall: d})
	return s
}

// AddDiskFail kills disk number disk at virtual time at: every
// operation touching it from then on fails with ErrDeviceLost.
func (s *Schedule) AddDiskFail(disk int, at sim.Time) *Schedule {
	s.rules = append(s.rules, &rule{
		kind: kindDeviceLost, device: fmt.Sprintf("disk%d", disk), at: at, count: -1,
	})
	return s
}

// AddDriveFail kills the named tape drive at virtual time at.
func (s *Schedule) AddDriveFail(device string, at sim.Time) *Schedule {
	s.rules = append(s.rules, &rule{
		kind: kindDriveLost, device: device, at: at, count: -1,
	})
	return s
}
