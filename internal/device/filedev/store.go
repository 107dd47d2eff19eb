package filedev

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/ioengine"
	"repro/internal/device/meter"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Store is file-backed disk scratch: every logical file is one OS
// file read and written at direct offsets, with the array geometry
// kept only for capacity accounting (NumDisks * BlocksPerDisk). Reads
// and writes charge their measured wall time; there is no seek model
// — that is what makes it a disk. The embedded meter accounts every
// request and the allocated space.
//
// All of the store's files share one I/O worker, so disk requests
// serialize against each other in wall-clock time (one array, one
// channel) but overlap with tape transfers. FIFO submission on the
// worker orders a file's planned writes before any later read of the
// same records.
type Store struct {
	meter.Meter
	cfg    device.StoreConfig
	dir    string
	b      *Backend
	w      *ioengine.Worker // nil when the backend is synchronous
	seq    int
	closed bool
}

var _ device.Store = (*Store)(nil)

// Config implements device.Store.
func (s *Store) Config() device.StoreConfig { return s.cfg }

// TotalCapacity implements device.Store.
func (s *Store) TotalCapacity() int64 {
	return int64(s.cfg.NumDisks) * s.cfg.BlocksPerDisk
}

// Free implements device.Store.
func (s *Store) Free() int64 { return s.TotalCapacity() - s.Used() }

// BusyTime implements device.Store: the measured transfer time.
func (s *Store) BusyTime() sim.Duration { return s.Stats.TransferTime }

// DeadDisks implements device.Store: OS files do not lose platters.
func (s *Store) DeadDisks() []int { return nil }

// Create implements device.Store. placement is accepted for interface
// compatibility and ignored: OS files have no meaningful stripe
// placement.
func (s *Store) Create(name string, _ []int) (device.File, error) {
	if s.closed {
		return nil, fmt.Errorf("filedev: store is closed")
	}
	s.seq++
	path := filepath.Join(s.dir, fmt.Sprintf("%04d-%s.dat", s.seq, sanitize(name)))
	rf, err := s.b.createRecFile(path)
	if err != nil {
		return nil, err
	}
	return &File{s: s, name: name, rf: rf, path: path}, nil
}

// charge accounts n newly allocated blocks against capacity.
func (s *Store) charge(n int64) error {
	if n > s.Free() {
		return fmt.Errorf("%w: need %d blocks, %d free", fault.ErrDiskFull, n, s.Free())
	}
	s.Alloc(n)
	return nil
}

// step runs the fault step of one file operation. The OS-level
// verdict, if any, is armed on the file so it strikes the planned
// syscalls on the worker.
func (s *Store) step(p *sim.Proc, name string, rf *recFile, write bool, off, n int64) (bool, error) {
	ef, err := s.Step(p, fault.Op{Write: write, Addr: off, N: n}, name)
	if !ef.OS.Zero() {
		rf.arm(ef.OS)
	}
	return ef.Corrupt, err
}

// transfer runs one planned file operation through the store's worker
// (or inline when synchronous) and charges its measured wall
// duration.
func (s *Store) transfer(p *sim.Proc, n int64, write bool, op func() error) error {
	tx := p.Now()
	elapsed, err := doIO(p, s.w, paced(s.b.pace(s.cfg.AggregateRate, n), op))
	if err != nil {
		// A tripped breaker on the shared disk worker makes all scratch
		// unreachable, so unit recovery rebuilds the store (with a fresh
		// worker) and re-stages.
		if lost := fault.Tripped(err, fault.ErrDeviceLost); lost != nil {
			return fmt.Errorf("filedev: disk store: %w", lost)
		}
		return err
	}
	s.Transfer(p, write, obs.Event{Start: tx, Blocks: n}, elapsed)
	s.Done(p, write, n, tx)
	return nil
}

// Close implements device.Store: it stops the store's I/O worker and
// removes the scratch directory. Safe to call more than once and
// after partial construction.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.w.Close()
	remove(s.dir)
	return nil
}

// File is one OS-file-backed scratch file.
type File struct {
	s     *Store
	name  string
	rf    *recFile
	path  string
	freed bool
}

var _ device.File = (*File)(nil)

// Name implements device.File.
func (f *File) Name() string { return f.name }

// Len implements device.File.
func (f *File) Len() int64 { return int64(len(f.rf.index)) }

// Lost implements device.File: OS-backed files do not lose extents.
func (f *File) Lost() bool { return false }

// Append implements device.File. Operating on a freed file is an
// error, not a panic: recovery paths that lose a race with cleanup
// must be able to degrade through the join's retry machinery.
func (f *File) Append(p *sim.Proc, blks []block.Block) error {
	if f.freed {
		return fmt.Errorf("filedev: append to %q: %w", f.name, ErrFreed)
	}
	n := int64(len(blks))
	corrupt, err := f.s.step(p, f.name, f.rf, true, f.Len(), n)
	if err != nil {
		return err
	}
	if err := f.s.charge(n); err != nil {
		return err
	}
	plan, err := f.rf.planAppend(f.Len(), blks)
	if err != nil {
		return err
	}
	if err := f.s.transfer(p, n, true, func() error {
		return f.rf.execWrites(plan)
	}); err != nil {
		return err
	}
	_ = corrupt // stored-copy corruption is surfaced on read
	return nil
}

// ReadAt implements device.File: out-of-range requests fail with a
// typed error rather than an OS short read, and freed files return
// ErrFreed.
func (f *File) ReadAt(p *sim.Proc, off, n int64) ([]block.Block, error) {
	if f.freed {
		return nil, fmt.Errorf("filedev: read from %q: %w", f.name, ErrFreed)
	}
	if off < 0 || n < 0 || off+n > f.Len() {
		return nil, fmt.Errorf("filedev: read [%d,%d) beyond len %d of %q", off, off+n, f.Len(), f.name)
	}
	corrupt, err := f.s.step(p, f.name, f.rf, false, off, n)
	if err != nil {
		return nil, err
	}
	plan, err := f.rf.planRead(off, n)
	if err != nil {
		return nil, err
	}
	if err := f.s.transfer(p, n, false, func() error {
		return f.rf.execReads(plan)
	}); err != nil {
		return nil, err
	}
	blks := assemble(plan)
	if corrupt {
		fault.Flip(blks)
	}
	return blks, nil
}

// Free implements device.File.
func (f *File) Free() {
	if f.freed {
		return
	}
	f.freed = true
	f.s.Release(f.Len())
	f.rf.close()
	if f.path != "" {
		os.Remove(f.path)
	}
}
