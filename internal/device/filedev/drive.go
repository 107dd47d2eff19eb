package filedev

import (
	"fmt"
	"path/filepath"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/ioengine"
	"repro/internal/device/meter"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Drive is a file-backed tape drive: the mounted medium's blocks live
// in a sequential spool file, reads and writes stream real bytes
// through the OS and charge their measured wall time, and head
// repositioning charges the profile's modeled seek latency. The
// embedded meter accounts every request exactly as the simulated
// drive's does.
//
// Transfers are planned under the control token (index updates,
// offset reservation) and executed on the drive's I/O worker while
// the proc yields, so independent drives' transfers overlap in
// wall-clock time.
type Drive struct {
	meter.Meter
	name string
	cfg  device.DriveConfig
	res  *sim.Resource
	dir  string
	b    *Backend
	w    *ioengine.Worker // nil when the backend is synchronous

	m       device.Medium
	spool   *recFile
	pos     device.Addr
	reverse bool
	loadErr error

	lost   bool
	closed bool
}

var _ device.Drive = (*Drive)(nil)

// Name implements device.Drive.
func (d *Drive) Name() string { return d.name }

// Config implements device.Drive.
func (d *Drive) Config() device.DriveConfig { return d.cfg }

// Media implements device.Drive.
func (d *Drive) Media() device.Medium { return d.m }

// BusyTime implements device.Drive.
func (d *Drive) BusyTime() sim.Duration { return d.res.BusyTime }

// Load implements device.Drive: it respools the medium's current
// contents into the drive's spool file, so the OS copy always matches
// the authoritative medium at mount time. The respool runs inline —
// a mount is not a transfer and charges no time — which is safe
// because the worker has no in-flight operations when the token
// holder can call Load. Spool errors surface on the first transfer
// (Load itself cannot fail, matching the simulator).
func (d *Drive) Load(m device.Medium) {
	d.m = m
	d.pos = 0
	d.reverse = false
	d.loadErr = nil
	if d.spool != nil {
		d.spool.close()
		d.spool = nil
	}
	if m == nil {
		return
	}
	spool, err := d.b.createRecFile(filepath.Join(d.dir, "spool-"+sanitize(m.Name())+".dat"))
	if err != nil {
		d.loadErr = fmt.Errorf("filedev: drive %q load: %w", d.name, err)
		return
	}
	if eod := int64(m.EOD()); eod > 0 {
		blks, err := m.ReadSetup(device.Region{Start: 0, N: eod})
		if err == nil {
			err = spool.appendRecords(0, blks)
		}
		if err != nil {
			d.loadErr = fmt.Errorf("filedev: drive %q spool %q: %w", d.name, m.Name(), err)
			spool.close()
			return
		}
	}
	d.spool = spool
}

// ready rejects operations on an empty or failed drive.
func (d *Drive) ready() error {
	switch {
	case d.lost:
		return fmt.Errorf("filedev: drive %q: %w", d.name, fault.ErrDriveLost)
	case d.closed:
		return fmt.Errorf("filedev: drive %q is closed", d.name)
	case d.m == nil:
		return fmt.Errorf("filedev: drive %q has no cartridge", d.name)
	case d.loadErr != nil:
		return d.loadErr
	}
	return nil
}

// checkRead validates a read range against recorded data.
func (d *Drive) checkRead(addr device.Addr, n int64) error {
	if eod := d.m.EOD(); addr < 0 || n < 0 || addr+device.Addr(n) > eod {
		return fmt.Errorf("filedev: drive %q read [%d,%d) out of range [0,%d)",
			d.name, addr, addr+device.Addr(n), eod)
	}
	return nil
}

// take holds the drive for one request. On a shared pair it takes the
// transport, exchanging cartridges when the other drive had it; the
// fresh cartridge's head sits at its start. The caller releases d.res.
func (d *Drive) take(p *sim.Proc) {
	d.res.Acquire(p)
	if d.SwitchIn(p, d.cfg.ExchangeTime) {
		d.pos = 0
		d.reverse = false
	}
}

// step runs the fault step of one request while the drive is held.
// The OS-level verdict, if any, is armed on the spool file so it
// strikes the planned syscalls on the worker.
func (d *Drive) step(p *sim.Proc, write bool, addr device.Addr, n int64) (bool, error) {
	ef, err := d.Step(p, fault.Op{Write: write, Addr: int64(addr), N: n}, d.name)
	d.lost = d.lost || ef.Lost
	if !ef.OS.Zero() {
		d.spool.arm(ef.OS)
	}
	return ef.Corrupt, err
}

// seekTo charges the modeled reposition latency to addr. The spool
// file repositions for free; the transport this backend stands in for
// does not, so the profile's seek model is retained as virtual time.
func (d *Drive) seekTo(p *sim.Proc, addr device.Addr, wantReverse bool) {
	d.Seek(p, d.cfg.SeekTime(d.pos, addr))
	d.pos = addr
	d.reverse = wantReverse
}

// transfer runs one planned spool operation through the drive's
// worker (or inline when synchronous) and charges its measured wall
// duration, updating the counters shared by every read/write path.
func (d *Drive) transfer(p *sim.Proc, write bool, entered sim.Time, n int64, op func() error) error {
	tx := p.Now()
	elapsed, err := doIO(p, d.w, paced(d.b.pace(d.cfg.EffectiveRate(), n), op))
	if err != nil {
		// A tripped breaker loses the transport for this run, so the
		// session's degrade path rebuilds on a shared pair with fresh,
		// healthy workers.
		if lost := fault.Tripped(err, fault.ErrDriveLost); lost != nil {
			d.lost = true
			return fmt.Errorf("filedev: drive %q: %w", d.name, lost)
		}
		return err
	}
	d.Transfer(p, write, obs.Event{Start: tx, Blocks: n}, elapsed)
	d.Done(p, write, n, entered)
	return nil
}

// ReadAt implements device.Drive.
func (d *Drive) ReadAt(p *sim.Proc, addr device.Addr, n int64) ([]block.Block, error) {
	if err := d.ready(); err != nil {
		return nil, err
	}
	if err := d.checkRead(addr, n); err != nil {
		return nil, err
	}
	entered := p.Now()
	d.take(p)
	defer d.res.Release(p)
	corrupt, err := d.step(p, false, addr, n)
	if err != nil {
		return nil, err
	}
	d.seekTo(p, addr, false)
	plan, err := d.spool.planRead(int64(addr), n)
	if err != nil {
		return nil, err
	}
	if err := d.transfer(p, false, entered, n, func() error {
		return d.spool.execReads(plan)
	}); err != nil {
		return nil, err
	}
	d.pos = addr + device.Addr(n)
	blks := assemble(plan)
	if corrupt {
		fault.Flip(blks)
	}
	return blks, nil
}

// ReadRegionReverse implements device.Drive: the head positions at
// the region's end (free when already there) and streams backward;
// blocks return in forward order.
func (d *Drive) ReadRegionReverse(p *sim.Proc, r device.Region) ([]block.Block, error) {
	if err := d.ready(); err != nil {
		return nil, err
	}
	if !d.cfg.BiDirectional {
		return nil, fmt.Errorf("filedev: drive %q cannot read in reverse", d.name)
	}
	if err := d.checkRead(r.Start, r.N); err != nil {
		return nil, err
	}
	entered := p.Now()
	d.take(p)
	defer d.res.Release(p)
	corrupt, err := d.step(p, false, r.Start, r.N)
	if err != nil {
		return nil, err
	}
	d.seekTo(p, r.End(), true)
	plan, err := d.spool.planRead(int64(r.Start), r.N)
	if err != nil {
		return nil, err
	}
	if err := d.transfer(p, false, entered, r.N, func() error {
		return d.spool.execReads(plan)
	}); err != nil {
		return nil, err
	}
	d.pos = r.Start
	blks := assemble(plan)
	if corrupt {
		fault.Flip(blks)
	}
	return blks, nil
}

// Append implements device.Drive: the medium records the append (it
// stays authoritative for content and EOD), and the same bytes stream
// to the spool file for the measured transfer cost.
func (d *Drive) Append(p *sim.Proc, blks []block.Block) (device.Region, error) {
	if err := d.ready(); err != nil {
		return device.Region{}, err
	}
	entered := p.Now()
	d.take(p)
	defer d.res.Release(p)
	eod := d.m.EOD()
	if _, err := d.step(p, true, eod, int64(len(blks))); err != nil {
		return device.Region{}, err
	}
	reg, err := d.m.AppendSetup(blks)
	if err != nil {
		return device.Region{}, err
	}
	d.seekTo(p, reg.Start, false)
	plan, err := d.spool.planAppend(int64(reg.Start), blks)
	if err != nil {
		return device.Region{}, err
	}
	if err := d.transfer(p, true, entered, reg.N, func() error {
		return d.spool.execWrites(plan)
	}); err != nil {
		return device.Region{}, err
	}
	d.pos = reg.End()
	return reg, nil
}

// WriteAt implements device.Drive: dual-write like Append, with the
// replaced records repointed in the spool index.
func (d *Drive) WriteAt(p *sim.Proc, addr device.Addr, blks []block.Block) error {
	if err := d.ready(); err != nil {
		return err
	}
	entered := p.Now()
	d.take(p)
	defer d.res.Release(p)
	if _, err := d.step(p, true, addr, int64(len(blks))); err != nil {
		return err
	}
	if err := d.m.WriteSetup(addr, blks); err != nil {
		return err
	}
	d.seekTo(p, addr, false)
	plan, err := d.spool.planAppend(int64(addr), blks)
	if err != nil {
		return err
	}
	if err := d.transfer(p, true, entered, int64(len(blks)), func() error {
		return d.spool.execWrites(plan)
	}); err != nil {
		return err
	}
	d.pos = addr + device.Addr(len(blks))
	return nil
}

// Close implements device.Drive: it stops the drive's I/O worker
// (draining any queued requests), releases the spool file, and
// removes the scratch directory. Safe to call more than once and
// after partial construction.
func (d *Drive) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	d.w.Close()
	var err error
	if d.spool != nil {
		err = d.spool.close()
		d.spool = nil
	}
	remove(d.dir)
	return err
}
