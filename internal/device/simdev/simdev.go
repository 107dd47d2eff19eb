// Package simdev adapts the virtual-time tape and disk simulators to
// the device interfaces. It is the default backend: all timing is
// virtual, fully deterministic, and calibrated to the paper's
// experimental platform.
package simdev

import (
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/tape"
)

// Drive wraps the simulated tape drive; everything but Close promotes
// from it.
type Drive struct {
	*tape.Drive
}

// Close implements device.Drive: a simulated drive holds no OS
// resources.
func (d Drive) Close() error { return nil }

// Store wraps the simulated striped disk array. Create rewraps the
// concrete file type.
type Store struct {
	*disk.Array
}

// Create implements device.Store.
func (s Store) Create(name string, placement []int) (device.File, error) {
	f, err := s.Array.Create(name, placement)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Close implements device.Store: a simulated array holds no OS
// resources.
func (s Store) Close() error { return nil }

// Backend builds simulated drives and arrays.
type Backend struct{}

var _ device.Backend = Backend{}

// Name implements device.Backend.
func (Backend) Name() string { return "sim" }

// NewDrive implements device.Backend.
func (Backend) NewDrive(k *sim.Kernel, name string, cfg device.DriveConfig) (device.Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return Drive{tape.NewDrive(k, name, cfg)}, nil
}

// NewSharedDrivePair implements device.Backend.
func (Backend) NewSharedDrivePair(k *sim.Kernel, nameA, nameB string, cfg device.DriveConfig) (device.Drive, device.Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	a, b := tape.NewSharedDrivePair(k, nameA, nameB, cfg)
	return Drive{a}, Drive{b}, nil
}

// NewStore implements device.Backend.
func (Backend) NewStore(k *sim.Kernel, cfg device.StoreConfig) (device.Store, error) {
	a, err := disk.NewArray(k, cfg)
	if err != nil {
		return nil, err
	}
	return Store{a}, nil
}
