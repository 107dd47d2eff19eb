// Package simdev is the default backend: the tape drives and disk
// store keep their blocks in memory and hold every transfer for its
// modelled time, so all timing is virtual, fully deterministic, and
// calibrated to the paper's experimental platform.
package simdev

import (
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/tape"
)

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
	return tape.NewDrive(k, name, cfg, nil), nil
}

// NewSharedDrivePair implements device.Backend.
func (Backend) NewSharedDrivePair(k *sim.Kernel, nameA, nameB string, cfg device.DriveConfig) (device.Drive, device.Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	a, b := tape.NewSharedDrivePair(k, nameA, nameB, cfg, nil, nil)
	return a, b, nil
}

// NewStore implements device.Backend.
func (Backend) NewStore(k *sim.Kernel, cfg device.StoreConfig) (device.Store, error) {
	return disk.NewArray(k, cfg, nil)
}
