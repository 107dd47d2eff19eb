// Package device defines the narrow storage interfaces the join code
// runs against: tape-like drives (sequential block transfer with
// positioning cost, forward and reverse region scans, append-only
// scratch), disk-like stores (scratch-file allocate/free with direct
// offsets), and a backend that constructs both. The join methods,
// recovery machinery and workload engine speak only these interfaces;
// the virtual-time simulator (device/simdev) and the real-OS-file
// runtime (device/filedev) are interchangeable backends behind them.
package device

import (
	"repro/internal/block"
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

// Drive is a tape-like device: one mounted medium, a head position,
// and sequential block transfer with positioning cost. A drive serves
// one request at a time; concurrent processes sharing it serialize.
type Drive interface {
	// Name identifies the drive.
	Name() string
	// Config returns the drive's performance profile.
	Config() DriveConfig
	// Media returns the mounted medium, or nil.
	Media() Medium
	// Load mounts a medium and positions the head at block 0.
	Load(m Medium)
	// ReadAt reads n blocks starting at addr.
	ReadAt(p *sim.Proc, addr Addr, n int64) ([]block.Block, error)
	// ReadRegionReverse reads a region while the head travels
	// backward, returning blocks in forward order. Fails unless the
	// drive profile is BiDirectional.
	ReadRegionReverse(p *sim.Proc, r Region) ([]block.Block, error)
	// Append writes blocks at end of data and returns the region
	// written.
	Append(p *sim.Proc, blks []block.Block) (Region, error)
	// WriteAt overwrites blocks starting at addr, extending end of
	// data when the write runs past it.
	WriteAt(p *sim.Proc, addr Addr, blks []block.Block) error
	// BusyTime is the total time the drive was held.
	BusyTime() sim.Duration
	// DriveStats snapshots the drive's cumulative activity counters.
	DriveStats() DriveStats
	Instrumented
	// Close releases the drive's OS resources (I/O worker, scratch
	// files); a no-op for purely virtual backends. Safe to call more
	// than once.
	Close() error
}

// File is one scratch file on a store: append-only growth, direct
// positioned reads, explicit free.
type File interface {
	// Name identifies the file.
	Name() string
	// Len is the current length in blocks.
	Len() int64
	// Append adds blocks at the end of the file.
	Append(p *sim.Proc, blks []block.Block) error
	// ReadAt reads n blocks starting at block offset off.
	ReadAt(p *sim.Proc, off, n int64) ([]block.Block, error)
	// Free releases the file's space.
	Free()
	// Lost reports whether the file lost extents to a dead drive.
	Lost() bool
}

// Store is the scratch space shared by joins: a bounded pool of
// blocks served as named files, with space accounting and failure
// tracking.
type Store interface {
	// Create allocates an empty file. placement, when non-nil,
	// restricts the file to the given drive indices.
	Create(name string, placement []int) (File, error)
	// Config returns the store's construction-time configuration, for
	// building an equivalent replacement store.
	Config() StoreConfig
	// TotalCapacity is the store's live capacity in blocks (dead
	// drives excluded).
	TotalCapacity() int64
	// Free is the unallocated space in blocks.
	Free() int64
	// HighWater is the peak allocated space since the last reset.
	HighWater() int64
	// ResetHighWater restarts peak tracking from current usage.
	ResetHighWater()
	// BusyTime is the cumulative busy time across the store's drives.
	BusyTime() sim.Duration
	// DiskStats snapshots the store's cumulative activity counters.
	DiskStats() DiskStats
	// DeadDisks lists permanently failed drive indices.
	DeadDisks() []int
	Instrumented
	// Close releases the store's OS resources (I/O worker, scratch
	// files); a no-op for purely virtual backends. Safe to call more
	// than once.
	Close() error
}

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
