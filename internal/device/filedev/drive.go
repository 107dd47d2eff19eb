package filedev

import (
	"fmt"
	"path/filepath"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/ioengine"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tape"
)

// spool moves a drive's bytes through a record file: the mounted
// medium's blocks are respooled into it at mount time, and every
// transfer streams real bytes through the OS on the drive's I/O
// worker. The drive's model charges everything else.
type spool struct {
	b      *Backend
	name   string
	dir    string
	w      *ioengine.Worker
	rf     *recFile // nil with no medium mounted, or after Close
	closed bool
}

var _ tape.Mover = (*spool)(nil)

// newSpool makes a drive's scratch directory and I/O worker.
func (b *Backend) newSpool(name string) (*spool, error) {
	dir, err := b.scratch("tape", name)
	if err != nil {
		return nil, err
	}
	return &spool{b: b, name: name, dir: dir, w: b.worker("tape:" + name)}, nil
}

// Mount implements tape.Mover: it respools the medium's current
// contents into a fresh spool file, so the OS copy always matches the
// authoritative medium at mount time. The respool runs inline — a
// mount is not a transfer and charges no time — which is safe because
// the worker has no in-flight operations when the token holder can
// mount. It is written in frame-sized chunks and fsynced only under
// SyncAlways (recFile.respool).
func (s *spool) Mount(m tape.Medium) error {
	if s.rf != nil {
		s.rf.close()
		s.rf = nil
	}
	if m == nil {
		return nil
	}
	rf, err := s.b.createRecFile(filepath.Join(s.dir, "spool-"+sanitize(m.Name())+".dat"))
	if err != nil {
		return err
	}
	if eod := int64(m.EOD()); eod > 0 {
		blks, err := m.ReadSetup(device.Region{Start: 0, N: eod})
		if err == nil {
			err = rf.respool(blks)
		}
		if err != nil {
			rf.close()
			return fmt.Errorf("spool %q: %w", m.Name(), err)
		}
	}
	s.rf = rf
	return nil
}

// Arm implements tape.Mover.
func (s *spool) Arm(dec fault.OSDecision) {
	if s.rf != nil {
		s.rf.arm(dec)
	}
}

// Read implements tape.Mover.
func (s *spool) Read(p *sim.Proc, _ tape.Medium, addr device.Addr, n int64, model sim.Duration) ([]block.Block, sim.Duration, error) {
	if s.rf == nil {
		return nil, 0, s.closedErr()
	}
	plan, err := s.rf.planRead(int64(addr), n)
	if err != nil {
		return nil, 0, err
	}
	var blks []block.Block
	t, err := s.do(p, model, func() (err error) {
		blks, err = s.rf.execReads(plan)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return blks, t, nil
}

// Recycle implements tape.Mover: it pools the buffers of blocks this
// backend's reads delivered, for later reads to fill.
func (s *spool) Recycle(blks []block.Block) { s.b.bufs.put(blks) }

// Write implements tape.Mover: the records land in the spool file and
// repoint its index.
func (s *spool) Write(p *sim.Proc, addr device.Addr, blks []block.Block, model sim.Duration) (sim.Duration, error) {
	if s.rf == nil {
		return 0, s.closedErr()
	}
	plan, err := s.rf.planAppend(int64(addr), blks)
	if err != nil {
		return 0, err
	}
	t, err := s.do(p, model, func() error { return s.rf.execWrites(plan.ops) })
	if err == nil {
		plan.release()
	}
	return t, err
}

// do runs one planned spool operation on the worker, paced to the
// modelled time. A tripped breaker loses the transport for this run,
// so the session's degrade path rebuilds on a shared pair with fresh,
// healthy workers.
func (s *spool) do(p *sim.Proc, model sim.Duration, op func() error) (sim.Duration, error) {
	t, err := s.w.Do(p, paced(s.b.pace(model), op))
	if lost := fault.Tripped(err, fault.ErrDriveLost); lost != nil {
		return t, fmt.Errorf("filedev: drive %q: %w", s.name, lost)
	}
	return t, err
}

// closedErr reports a transfer after Close: the drive checks that a
// medium is mounted, so only a closed spool has no record file.
func (s *spool) closedErr() error { return fmt.Errorf("filedev: drive %q is closed", s.name) }

// Close implements tape.Mover: it stops the I/O worker (draining any
// queued requests), releases the spool file, and removes the scratch
// directory.
func (s *spool) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.w.Close()
	var err error
	if s.rf != nil {
		err = s.rf.close()
		s.rf = nil
	}
	remove(s.dir)
	return err
}
