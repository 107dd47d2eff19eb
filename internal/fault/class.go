package fault

import (
	"errors"
	"fmt"

	"repro/internal/block"
)

// Failure sentinels. Devices and the join wrap them; the layers that
// recover ask the class table (Acts), never the sentinels themselves.
var (
	// ErrTransient marks a fault that a retry may clear.
	ErrTransient = errors.New("transient device error")
	// ErrMedia marks a hard media error: the data at that address is gone.
	ErrMedia = errors.New("unrecoverable media error")
	// ErrDeviceLost marks a permanently failed disk and every extent on it.
	ErrDeviceLost = errors.New("device lost")
	// ErrDriveLost marks a dead tape transport; its cartridge survives.
	ErrDriveLost = errors.New("tape drive lost")
	// ErrCorrupt marks a stored record that fails its checksum.
	ErrCorrupt = errors.New("device: stored record failed checksum verification")
	// ErrTimeout marks an operation that missed its per-op deadline.
	ErrTimeout = errors.New("ioengine: op deadline exceeded")
	// ErrDeviceFailed marks a device whose circuit breaker tripped.
	ErrDeviceFailed = errors.New("ioengine: device failed")
	// ErrFaultExhausted marks a read whose retry budget ran out; it
	// wraps the last cause.
	ErrFaultExhausted = errors.New("join: retries exhausted")
	// ErrDiskFull marks an allocation beyond the store's free space.
	ErrDiskFull = errors.New("disk: out of space")
)

// Layer is a set of recovery layers: the columns of the class table.
type Layer uint8

// The recovery layers.
const (
	Retry            Layer = 1 << iota // ioengine Worker.Do, while the breaker is closed
	Reread                             // the join's reposition and re-read (readDev)
	Restart                            // the join's unit restart and pipeline tail
	RestartAfterLoss                   // the same, once the array has lost a disk
	Degrade                            // the join's re-plan on one shared tape transport
	Requeue                            // the workload's one re-admission, with recovery on
	Contain                            // the workload fails the query, not the batch
)

// classes is the failure model: each class of failure, the errors that
// carry it, and the layers that act on it. A re-read may cure a
// timeout that outlived the device retries (a degraded device heals;
// a tripped one fails the re-read fast as a loss) and a checksum miss
// (the stored copy may be fine). Errors no class carries, such as an
// infeasible plan or a stop, reach no layer.
var classes = []struct {
	name string
	errs []error
	acts Layer
}{
	{"transient", []error{ErrTransient}, Retry | Reread | Contain},
	{"timeout", []error{ErrTimeout}, Retry | Reread | Contain},
	{"corrupt", []error{ErrCorrupt, block.ErrBadChecksum}, Reread | Requeue | Contain},
	{"media", []error{ErrMedia}, Contain},
	{"breaker", []error{ErrDeviceFailed}, Requeue | Contain},
	{"drive-lost", []error{ErrDriveLost}, Degrade | Requeue | Contain},
	{"device-lost", []error{ErrDeviceLost}, Restart | RestartAfterLoss | Requeue | Contain},
	{"exhausted", []error{ErrFaultExhausted}, Restart | RestartAfterLoss | Requeue | Contain},
	{"capacity", []error{ErrDiskFull}, RestartAfterLoss},
}

// Acts reports whether layer l acts on err: whether any class in err's
// chain lists l. So ErrFaultExhausted wrapping a transient is both
// restartable and re-readable.
func Acts(l Layer, err error) bool {
	for _, c := range classes {
		if c.acts&l == 0 {
			continue
		}
		for _, e := range c.errs {
			if errors.Is(err, e) {
				return true
			}
		}
	}
	return false
}

// Tripped returns a tripped breaker in err as lost (ErrDriveLost or
// ErrDeviceLost), the loss of the device the breaker guards, so the
// layers that rebuild a lost device act on it; nil for any other err.
func Tripped(err, lost error) error {
	if !errors.Is(err, ErrDeviceFailed) {
		return nil
	}
	return fmt.Errorf("%w: %w", lost, err)
}
