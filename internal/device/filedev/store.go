package filedev

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/block"
	"repro/internal/device/ioengine"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// store moves a disk array's bytes: every scratch file is one OS
// record file read and written at direct offsets, and a transfer
// charges its measured wall time — there is no seek, which is what
// makes it a disk. All of the store's files share one I/O worker, so
// disk requests serialize against each other in wall-clock time (one
// array, one channel) but overlap with tape transfers. FIFO
// submission on the worker orders a file's planned writes before any
// later read of the same records.
type store struct {
	b      *Backend
	a      *disk.Array // meters every transfer
	dir    string
	w      *ioengine.Worker
	closed bool
}

var _ disk.Mover = (*store)(nil)

// Create implements disk.Mover.
func (s *store) Create(f *disk.File) (disk.Extent, error) {
	if s.closed {
		return nil, fmt.Errorf("filedev: store is closed")
	}
	path := filepath.Join(s.dir, sanitize(f.Name())+".dat")
	rf, err := s.b.createRecFile(path)
	if err != nil {
		return nil, err
	}
	return &scratchFile{s: s, rf: rf, path: path}, nil
}

// Close implements disk.Mover: it stops the store's I/O worker and
// removes the scratch directory.
func (s *store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.w.Close()
	remove(s.dir)
	return nil
}

// transfer runs one planned file operation of n blocks through the
// store's worker, paced to the array's aggregate rate, and meters its
// measured wall duration.
func (s *store) transfer(p *sim.Proc, n int64, write bool, op func() error) error {
	tx := p.Now()
	model := time.Duration(float64(n) * block.VirtualSize / s.a.Config().AggregateRate * float64(time.Second))
	elapsed, err := s.w.Do(p, paced(s.b.pace(model), op))
	if err != nil {
		// A tripped breaker on the shared disk worker makes all scratch
		// unreachable, so unit recovery rebuilds the store (with a fresh
		// worker) and re-stages.
		if lost := fault.Tripped(err, fault.ErrDeviceLost); lost != nil {
			return fmt.Errorf("filedev: disk store: %w", lost)
		}
		return err
	}
	s.a.Transfer(p, write, obs.Event{Start: tx, Blocks: n}, elapsed)
	s.a.Done(p, write, n, tx)
	return nil
}

// scratchFile is one scratch file's bytes: an OS record file.
type scratchFile struct {
	s    *store
	rf   *recFile
	path string
}

// Arm implements disk.Extent.
func (f *scratchFile) Arm(dec fault.OSDecision) { f.rf.arm(dec) }

// Write implements disk.Extent.
func (f *scratchFile) Write(p *sim.Proc, off int64, blks []block.Block) error {
	plan, err := f.rf.planAppend(off, blks)
	if err != nil {
		return err
	}
	err = f.s.transfer(p, int64(len(blks)), true, func() error { return f.rf.execWrites(plan.ops) })
	if err == nil {
		plan.release()
	}
	return err
}

// Read implements disk.Extent.
func (f *scratchFile) Read(p *sim.Proc, off, n int64) ([]block.Block, error) {
	plan, err := f.rf.planRead(off, n)
	if err != nil {
		return nil, err
	}
	var blks []block.Block
	err = f.s.transfer(p, n, false, func() (err error) {
		blks, err = f.rf.execReads(plan)
		return err
	})
	if err != nil {
		return nil, err
	}
	return blks, nil
}

// Recycle implements disk.Extent: it pools the buffers of blocks this
// backend's reads delivered, for later reads to fill.
func (f *scratchFile) Recycle(blks []block.Block) { f.s.b.bufs.put(blks) }

// Free implements disk.Extent.
func (f *scratchFile) Free() {
	f.rf.close()
	os.Remove(f.path)
}
