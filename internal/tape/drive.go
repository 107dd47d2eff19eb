package tape

import (
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/device/meter"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DriveConfig sets the performance model of a simulated tape drive.
type DriveConfig struct {
	// NativeRate is the sustained transfer rate in bytes per second at
	// compression factor 1.0.
	NativeRate float64
	// CompressionFactor scales the effective rate: data that is 25%
	// compressible streams ~1.33x faster, 50% compressible ~2x faster
	// (Section 9 of the paper). Must be >= 1.
	CompressionFactor float64
	// SeekFixed is the fixed component of a repositioning seek
	// (locate command issue, head settle).
	SeekFixed sim.Duration
	// SeekPerBlock is the distance-dependent seek component per block
	// of travel. On serpentine drives long files rewind fast, so this
	// is small but nonzero.
	SeekPerBlock sim.Duration
	// StartStopPenalty is charged when a sequential transfer resumes
	// after the drive has stopped streaming. The paper's model assumes
	// the drive buffer hides these (zero); the calibrated DLT-4000
	// profile charges them.
	StartStopPenalty sim.Duration
	// StartStopHide is the longest idle gap the drive's internal
	// read-ahead buffer absorbs; only gaps beyond it break streaming
	// and incur StartStopPenalty (the Section 3.2 assumption that
	// "the tape drive has enough buffer memory to hide these delays",
	// bounded by a real buffer size).
	StartStopHide sim.Duration
	// ExchangeTime is the robot media-exchange delay charged when a
	// request moves the head to a different cartridge of a
	// MultiVolume medium (the paper's ~30 s per exchange, Section
	// 3.2).
	ExchangeTime sim.Duration
	// BiDirectional enables ReadReverse: reading toward the beginning
	// of tape without repositioning, the optional SCSI READ REVERSE
	// of the paper's footnote 2.
	BiDirectional bool
}

// EffectiveRate returns bytes/second after compression scaling.
func (c DriveConfig) EffectiveRate() float64 { return c.NativeRate * c.CompressionFactor }

// Validate reports configuration errors.
func (c DriveConfig) Validate() error {
	if c.NativeRate <= 0 {
		return fmt.Errorf("tape: NativeRate %v <= 0", c.NativeRate)
	}
	if c.CompressionFactor < 1 {
		return fmt.Errorf("tape: CompressionFactor %v < 1", c.CompressionFactor)
	}
	if c.SeekFixed < 0 || c.SeekPerBlock < 0 || c.StartStopPenalty < 0 ||
		c.StartStopHide < 0 || c.ExchangeTime < 0 {
		return fmt.Errorf("tape: negative delay in config")
	}
	return nil
}

// SeekTime is the repositioning time from block from to block to:
// SeekFixed plus SeekPerBlock per block of travel, zero when the head
// is already there.
func (c DriveConfig) SeekTime(from, to Addr) sim.Duration {
	if from == to {
		return 0
	}
	dist := int64(to - from)
	if dist < 0 {
		dist = -dist
	}
	return c.SeekFixed + sim.Duration(dist)*c.SeekPerBlock
}

// DLT4000 returns a drive profile calibrated against the paper's
// experimental platform (Quantum DLT-4000, 20 GB mode). The native
// rate is chosen so that 25%-compressible data streams at ~1.676 MB/s,
// which reproduces the bare-read times of Table 3.
func DLT4000() DriveConfig {
	return DriveConfig{
		NativeRate:        1.257e6,
		CompressionFactor: 1.33,
		SeekFixed:         20 * time.Second,
		SeekPerBlock:      150 * time.Microsecond, // ~48 s across a full 20 GB tape
		StartStopPenalty:  1500 * time.Millisecond,
		StartStopHide:     2 * time.Second,
		ExchangeTime:      30 * time.Second,
	}
}

// Ideal returns a drive profile implementing the paper's simplified
// cost model exactly: pure transfer cost, no seeks, no stop/start
// penalties, free media exchanges. Rate matches DLT4000 at the same
// compression factor.
func Ideal() DriveConfig {
	return DriveConfig{NativeRate: 1.257e6, CompressionFactor: 1.33}
}

// Mover moves the bytes of a drive's transfers; the drive decides
// everything else. Before a mover sees a transfer the drive has
// checked the request, taken the transport, run the fault step and
// positioned the head (exchanges, seeks, stop/start), and after it the
// drive meters the transfer. A mover holds p for the transfer and
// returns the time it charged: the simulator's mover holds the
// modelled time, the file backend's the wall time its OS I/O took.
type Mover interface {
	// Mount makes m (nil: none) the medium the mover serves.
	Mount(m Medium) error
	// Arm queues an OS-level fault verdict against the next transfer.
	Arm(dec fault.OSDecision)
	// Read delivers blocks [addr, addr+n) of m, which the drive
	// modelled as taking model.
	Read(p *sim.Proc, m Medium, addr Addr, n int64, model sim.Duration) ([]block.Block, sim.Duration, error)
	// Write moves blks, which the medium already records at addr.
	Write(p *sim.Proc, addr Addr, blks []block.Block, model sim.Duration) (sim.Duration, error)
	// Recycle takes back blocks a Read delivered once their reader
	// holds no alias to them (Drive.Recycle).
	Recycle(blks []block.Block)
	// Close releases the mover's OS resources. Safe to call more than
	// once.
	Close() error
}

// simMover is the simulator's mover: the medium's in-memory blocks,
// moved in the modelled transfer time.
type simMover struct{}

func (simMover) Mount(Medium) error   { return nil }
func (simMover) Arm(fault.OSDecision) {}
func (simMover) Close() error         { return nil }

// Recycle ignores the blocks: they are the medium's stored ones.
func (simMover) Recycle([]block.Block) {}
func (simMover) Write(p *sim.Proc, _ Addr, _ []block.Block, model sim.Duration) (sim.Duration, error) {
	p.Hold(model)
	return model, nil
}

func (simMover) Read(p *sim.Proc, m Medium, addr Addr, n int64, model sim.Duration) ([]block.Block, sim.Duration, error) {
	data, err := m.read(addr, n)
	if err != nil {
		return nil, 0, err
	}
	p.Hold(model)
	return data, model, nil
}

// Drive is a tape drive: the paper's cost model of one transport over
// a byte mover. A drive serves one request at a time (FIFO):
// concurrent processes sharing a drive serialize on it, which is how
// read/append contention on one cartridge costs time. The embedded
// meter accounts every request.
type Drive struct {
	meter.Meter
	name  string
	cfg   DriveConfig
	res   *sim.Resource
	mv    Mover
	media Medium
	// mountErr is the mover's failure to mount media, reported by
	// every request until the next Load.
	mountErr error

	pos     Addr     // head position
	curVol  int      // cartridge currently in the drive
	lastEnd sim.Time // virtual time the last transfer finished
	started bool     // at least one transfer has run
	reverse bool     // head is oriented for reverse reading
}

// NewDrive returns a drive attached to the kernel with the given
// profile and no cartridge loaded, moving its bytes through mv (nil:
// the simulator's in-memory mover).
func NewDrive(k *sim.Kernel, name string, cfg DriveConfig, mv Mover) *Drive {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return newDrive(name, cfg, sim.NewResource(k, "tape:"+name, 1), mv)
}

// NewSharedDrivePair returns two logical drives multiplexed onto ONE
// physical transport — the degraded configuration after a drive
// failure leaves a two-tape join with a single working drive. The
// drives serialize on the shared transport, and switching between them
// charges a media exchange (the robot swaps cartridges) plus the
// repositioning seek back to where that cartridge's head was needed.
func NewSharedDrivePair(k *sim.Kernel, nameA, nameB string, cfg DriveConfig, mvA, mvB Mover) (*Drive, *Drive) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	res := sim.NewResource(k, "tape:"+nameA+"+"+nameB, 1)
	a, b := newDrive(nameA, cfg, res, mvA), newDrive(nameB, cfg, res, mvB)
	meter.Share(&a.Meter, &b.Meter)
	return a, b
}

func newDrive(name string, cfg DriveConfig, res *sim.Resource, mv Mover) *Drive {
	if mv == nil {
		mv = simMover{}
	}
	return &Drive{Meter: meter.Tape("tape: drive", name), name: name, cfg: cfg, res: res, mv: mv}
}

// Name returns the drive name.
func (d *Drive) Name() string { return d.name }

// Config returns the drive profile.
func (d *Drive) Config() DriveConfig { return d.cfg }

// Media returns the mounted medium, or nil.
func (d *Drive) Media() Medium { return d.media }

// Load mounts a medium and positions the head at block 0. The paper
// assumes tapes are loaded before the join begins, so Load costs no
// virtual time. A mover that fails to mount the medium fails every
// request until the next Load.
func (d *Drive) Load(m Medium) {
	d.media = m
	d.pos = 0
	d.curVol = 0
	d.started = false
	d.reverse = false
	d.mountErr = nil
	if err := d.mv.Mount(m); err != nil {
		d.mountErr = fmt.Errorf("tape: drive %q mount: %w", d.name, err)
	}
}

// Close releases the mover's OS resources (I/O worker, spool file); a
// no-op on the simulator. Safe to call more than once.
func (d *Drive) Close() error { return d.mv.Close() }

// Recycle hands back blocks this drive's reads delivered. A delivered
// block is its reader's until then; a reader calls Recycle only once
// nothing it keeps (a hash table, a queued chunk, a tape medium it
// appended the block to) still aliases any of blks. The mover decides
// what a hand-back means: the simulator's ignores it, a file mover
// refills the buffers on later reads. Costs no virtual time.
func (d *Drive) Recycle(blks []block.Block) { d.mv.Recycle(blks) }

// BusyTime returns total virtual time the drive was held.
func (d *Drive) BusyTime() sim.Duration { return d.res.BusyTime }

// TransferTime returns the virtual time for moving n blocks at the
// effective rate.
func (d *Drive) TransferTime(n int64) sim.Duration {
	bytes := float64(n) * block.VirtualSize
	return sim.Duration(bytes / d.cfg.EffectiveRate() * float64(time.Second))
}

// exchangeTo swaps cartridges when addr lives on a different volume,
// charging the robot exchange delay.
func (d *Drive) exchangeTo(p *sim.Proc, addr Addr) {
	vol := d.media.volumeOf(addr)
	if vol == d.curVol {
		return
	}
	d.Exchange(p, d.cfg.ExchangeTime)
	d.curVol = vol
	// A fresh cartridge starts at its first block.
	d.pos = d.media.volumeSpan(vol).Start
	d.started = false
}

// seekWithin charges a head repositioning within the current volume.
func (d *Drive) seekWithin(p *sim.Proc, addr Addr) {
	d.Seek(p, d.cfg.SeekTime(d.pos, addr))
	d.pos = addr
}

// segment positions the head at addr for a forward transfer
// (exchanging cartridges if needed, and charging a stop/start penalty
// when a stream resumes after an idle gap the drive buffer cannot
// hide), and returns how many of n blocks lie on addr's cartridge.
func (d *Drive) segment(p *sim.Proc, addr Addr, n int64) int64 {
	d.exchangeTo(p, addr)
	if addr != d.pos || d.reverse {
		d.seekWithin(p, addr)
		d.reverse = false
	} else if d.started && d.cfg.StartStopPenalty > 0 &&
		p.Now() > d.lastEnd+sim.Time(d.cfg.StartStopHide) {
		d.Stats.StartStops++
		d.Stats.StartStopTime += d.cfg.StartStopPenalty
		p.Hold(d.cfg.StartStopPenalty)
	}
	if rest := int64(d.media.volumeSpan(d.curVol).End() - addr); n > rest {
		return rest
	}
	return n
}

// stream moves n blocks at addr through the mover, with the head
// positioned, and leaves the head at end. blks are a write's blocks;
// a read returns the blocks it delivered.
func (d *Drive) stream(p *sim.Proc, write bool, addr Addr, n int64, blks []block.Block, end Addr) ([]block.Block, error) {
	model := d.TransferTime(n)
	t0 := p.Now()
	var t sim.Duration
	var err error
	if write {
		t, err = d.mv.Write(p, addr, blks, model)
	} else {
		blks, t, err = d.mv.Read(p, d.media, addr, n, model)
	}
	if err != nil {
		return nil, err
	}
	d.Transfer(p, write, obs.Event{Start: t0, Blocks: n}, t)
	d.pos = end
	d.lastEnd = p.Now()
	d.started = true
	return blks, nil
}

// writeSegments moves blks, which the medium records at addr, one
// volume-contiguous segment at a time.
func (d *Drive) writeSegments(p *sim.Proc, addr Addr, blks []block.Block) error {
	for len(blks) > 0 {
		take := d.segment(p, addr, int64(len(blks)))
		if _, err := d.stream(p, true, addr, take, blks[:take], addr+Addr(take)); err != nil {
			return err
		}
		addr += Addr(take)
		blks = blks[take:]
	}
	return nil
}

// ready rejects a request on a drive with no cartridge, or whose
// mover failed to mount it.
func (d *Drive) ready() error {
	if d.media == nil {
		return fmt.Errorf("tape: drive %q has no cartridge", d.name)
	}
	return d.mountErr
}

// checkRead validates a read request against the mounted medium: the
// requested range must lie entirely within recorded data. Returning a
// typed error here (rather than trusting the medium or an OS short
// read to reject it) keeps out-of-range requests from reaching the
// positioning model.
func (d *Drive) checkRead(addr Addr, n int64) error {
	if err := d.ready(); err != nil {
		return err
	}
	if eod := d.media.EOD(); addr < 0 || n < 0 || addr+Addr(n) > eod {
		return fmt.Errorf("tape: drive %q read [%d,%d) out of range [0,%d)",
			d.name, addr, addr+Addr(n), eod)
	}
	return nil
}

// take holds the drive for one request; on a shared pair it takes the
// transport, exchanging cartridges when the other drive had it. The
// caller releases d.res.
func (d *Drive) take(p *sim.Proc) {
	d.res.Acquire(p)
	if d.SwitchIn(p, d.cfg.ExchangeTime) {
		// A freshly mounted cartridge rewinds to the start of its
		// current volume.
		if d.media != nil {
			d.pos = d.media.volumeSpan(d.curVol).Start
		}
		d.started = false
		d.reverse = false
	}
}

// step runs the fault step of one request with the drive held,
// arming an OS-level verdict on the mover.
func (d *Drive) step(p *sim.Proc, op fault.Op) (corrupt bool, err error) {
	ef, err := d.Step(p, op, d.name)
	if !ef.OS.Zero() {
		d.mv.Arm(ef.OS)
	}
	return ef.Corrupt, err
}

// ReadAt reads n blocks starting at addr, holding the drive for
// seeks, exchanges and transfer time, and returns the block data.
func (d *Drive) ReadAt(p *sim.Proc, addr Addr, n int64) ([]block.Block, error) {
	if err := d.checkRead(addr, n); err != nil {
		return nil, err
	}
	t0 := p.Now()
	d.take(p)
	defer d.res.Release(p)
	corrupt, err := d.step(p, fault.Op{Addr: int64(addr), N: n})
	if err != nil {
		return nil, err
	}
	var data []block.Block
	for at, end := addr, addr+Addr(n); at < end; {
		take := d.segment(p, at, int64(end-at))
		blks, err := d.stream(p, false, at, take, nil, at+Addr(take))
		if err != nil {
			return nil, err
		}
		if data == nil {
			data = blks
		} else {
			data = append(data, blks...)
		}
		at += Addr(take)
	}
	d.Done(p, false, n, t0)
	if corrupt {
		fault.Flip(data)
	}
	return data, nil
}

// ReadRegionReverse reads a region while the head travels backward,
// avoiding the repositioning seek when the head already sits at the
// region's end — the paper's footnote-2 optimization for algorithms
// that are independent of scan direction. The blocks are returned in
// forward order. Requires a BiDirectional drive.
func (d *Drive) ReadRegionReverse(p *sim.Proc, r Region) ([]block.Block, error) {
	if err := d.checkRead(r.Start, r.N); err != nil {
		return nil, err
	}
	if !d.cfg.BiDirectional {
		return nil, fmt.Errorf("tape: drive %q cannot read in reverse", d.name)
	}
	t0 := p.Now()
	d.take(p)
	defer d.res.Release(p)
	corrupt, err := d.step(p, fault.Op{Addr: int64(r.Start), N: r.N})
	if err != nil {
		return nil, err
	}
	// Reverse reading starts at the region's end: position there
	// (free when the head is already there) and stream backward.
	// Turning around is free on a serpentine drive; moving isn't.
	end := r.End()
	d.exchangeTo(p, end)
	d.seekWithin(p, end)
	d.reverse = true
	data, err := d.stream(p, false, r.Start, r.N, nil, r.Start)
	if err != nil {
		return nil, err
	}
	d.Done(p, false, r.N, t0)
	if corrupt {
		fault.Flip(data)
	}
	return data, nil
}

// Append writes blocks at the end of data (the tape's scratch space),
// holding the drive for the seek to EOD plus the transfer, and returns
// the region written.
func (d *Drive) Append(p *sim.Proc, blks []block.Block) (Region, error) {
	if err := d.ready(); err != nil {
		return Region{}, err
	}
	t0 := p.Now()
	d.take(p)
	defer d.res.Release(p)
	eod := d.media.EOD()
	if _, err := d.step(p, fault.Op{Write: true, Addr: int64(eod), N: int64(len(blks))}); err != nil {
		return Region{}, err
	}
	reg, err := d.media.append(blks)
	if err != nil {
		return Region{}, err
	}
	if err := d.writeSegments(p, eod, blks); err != nil {
		return Region{}, err
	}
	d.Done(p, true, reg.N, t0)
	return reg, nil
}

// WriteAt overwrites n blocks starting at addr (extending end of data
// when the write runs past it), charging seeks, exchanges and transfer
// time. Used by algorithms that reuse fixed tape workspaces, e.g. the
// sort-merge baseline's ping-pong merge passes.
func (d *Drive) WriteAt(p *sim.Proc, addr Addr, blks []block.Block) error {
	if err := d.ready(); err != nil {
		return err
	}
	t0 := p.Now()
	d.take(p)
	defer d.res.Release(p)
	n := int64(len(blks))
	if _, err := d.step(p, fault.Op{Write: true, Addr: int64(addr), N: n}); err != nil {
		return err
	}
	if err := d.media.writeAt(addr, blks); err != nil {
		return err
	}
	if err := d.writeSegments(p, addr, blks); err != nil {
		return err
	}
	d.Done(p, true, n, t0)
	return nil
}
