// Package device names the storage the join code runs against: the
// tape drive (sequential block transfer with positioning cost, forward
// and reverse region scans, append-only scratch), the disk store
// (scratch-file allocate/free with direct offsets), and a backend that
// constructs both. The drive and store own the paper's device model;
// the virtual-time simulator (device/simdev) and the real-OS-file
// runtime (device/filedev) are interchangeable backends that only
// move the bytes under it.
package device

import (
	"repro/internal/device/ioengine"
	"repro/internal/device/meter"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tape"
)

// Type aliases re-export the shared vocabulary types so join code can
// drop its direct tape/disk imports without conversion shims: these
// are identical types, not copies.
type (
	// Addr is a block address on a tape-like medium.
	Addr = tape.Addr
	// Region is a contiguous block range on a tape-like medium.
	Region = tape.Region
	// Medium is the mountable cartridge (or cartridge set) interface.
	Medium = tape.Medium
	// DriveConfig is the drive performance profile.
	DriveConfig = tape.DriveConfig
	// DriveStats is the per-drive activity snapshot.
	DriveStats = meter.Stats
	// DiskStats is the per-store activity snapshot.
	DiskStats = meter.Stats
	// StoreConfig describes a scratch store's geometry and rates.
	StoreConfig = disk.Config
)

// DLT4000 returns the calibrated drive profile of the paper's
// experimental platform.
func DLT4000() DriveConfig { return tape.DLT4000() }

// Ideal returns the paper's simplified transfer-only drive profile.
func Ideal() DriveConfig { return tape.Ideal() }

// Instrumented is the run wiring every device accepts: the tracker
// that records its I/O events, the registry that holds its counters,
// and the fault injector it consults. A nil argument disables each.
type Instrumented interface {
	SetTracker(t *obs.Tracker)
	SetMetrics(reg *obs.Registry)
	SetInjector(inj fault.Injector)
}

// There is one tape drive, one disk store and one scratch file type;
// a backend supplies only the byte movers under them.
type (
	// Drive is a tape drive: one mounted medium, a head position, and
	// sequential block transfer with positioning cost. A drive serves
	// one request at a time; concurrent processes sharing it
	// serialize.
	Drive = *tape.Drive
	// Store is the scratch space shared by joins: a bounded pool of
	// blocks on n drives served as named files, with space accounting
	// and failure tracking.
	Store = *disk.Array
	// File is one scratch file on a store: append-only growth, direct
	// positioned reads, explicit free.
	File = *disk.File
)

// Backend constructs a device complex. Implementations: simdev (the
// paper's virtual-time simulator) and filedev (real OS files with
// wall-clock transfer timing).
type Backend interface {
	// Name identifies the backend ("sim", "file").
	Name() string
	// NewDrive builds a drive attached to the kernel.
	NewDrive(k *sim.Kernel, name string, cfg DriveConfig) (Drive, error)
	// NewSharedDrivePair builds two logical drives behind one shared
	// transport — the degraded single-transport configuration used
	// after a drive loss.
	NewSharedDrivePair(k *sim.Kernel, nameA, nameB string, cfg DriveConfig) (Drive, Drive, error)
	// NewStore builds a scratch store attached to the kernel.
	NewStore(k *sim.Kernel, cfg StoreConfig) (Store, error)
}

// Truncatable is a medium whose scratch tail can be rolled back —
// recovery truncates abandoned tape scratch before a degraded rerun.
type Truncatable interface {
	EOD() Addr
	Truncate(addr Addr)
}

// WallStatser is implemented by backends that perform real OS I/O and
// can report wall-clock device activity: merged busy time per device
// and the fraction of it overlapped across devices (filedev).
type WallStatser interface {
	WallStats() ioengine.WallStats
	// PublishWallMetrics exports the wall stats as obs gauges (nil
	// registry is a no-op).
	PublishWallMetrics(reg *obs.Registry)
}

// HealthReporter is implemented by backends whose devices run the
// ioengine health state machine and can report it live: one row per
// device worker, safe to call from a scrape goroutine mid-run.
type HealthReporter interface {
	DeviceHealths() []ioengine.DeviceHealth
}
