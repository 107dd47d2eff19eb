package fault

import (
	"errors"
	"fmt"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Counts is a device's fault activity: Faults counts every verdict that
// fired (error, corruption, stall or OS verdict), Stalls and StallTime
// the injected stalls and the virtual time held in them.
type Counts struct {
	Faults, Stalls int64
	StallTime      sim.Duration
}

// Effect is what a fault step leaves to the device itself: Flip the
// delivered copy (Corrupt), arm the OS verdict on the file under the
// operation (OS), or mark the device dead (Lost; the error wraps it).
type Effect struct {
	Corrupt bool
	OS      OSDecision
	Lost    bool
}

// Step is the fault step of one device operation, run while the device
// is held and before any transfer time is charged. It decides op at
// the current virtual time, holds an injected stall and records it as
// an obs.Fault event on t, counts every verdict that fires in c, and
// returns what the device applies itself. An injected failure comes
// back wrapped with the device's identity (`who "name": ...`) and
// charges no transfer time. A nil injector returns at once.
func (c *Counts) Step(p *sim.Proc, inj Injector, t *obs.Tracker, op Op, who, name string) (Effect, error) {
	if inj == nil {
		return Effect{}, nil
	}
	op.Now = p.Now()
	d := inj.Decide(op)
	if d.Err != nil || d.Corrupt || d.Stall > 0 {
		c.Faults++
	}
	if !d.OS.Zero() {
		c.Faults++
	}
	if d.Stall > 0 {
		c.Stalls++
		c.StallTime += d.Stall
		t0 := p.Now()
		p.Hold(d.Stall)
		t.Record(p, obs.Event{Device: op.Device, Kind: obs.Fault, Start: t0, End: p.Now(), Note: "stall"})
	}
	if d.Err != nil {
		lost := errors.Is(d.Err, ErrDriveLost) || errors.Is(d.Err, ErrDeviceLost)
		return Effect{Lost: lost}, fmt.Errorf("%s %q: %w", who, name, d.Err)
	}
	return Effect{Corrupt: d.Corrupt, OS: d.OS}, nil
}

// Flip bit-flips one block of a delivered read without touching the
// stored copy (delivered slices may alias storage), so a re-read
// recovers: the corrupt verdict's effect on every device.
func Flip(blks []block.Block) {
	if len(blks) == 0 {
		return
	}
	i := len(blks) / 2
	bad := append(block.Block(nil), blks[i]...)
	bad[len(bad)-1] ^= 0xff
	blks[i] = bad
}
