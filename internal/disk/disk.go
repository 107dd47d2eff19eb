// Package disk simulates the secondary-storage complex of the paper: n
// disk drives with an aggregate sustained rate X_D, explicit file
// placement (the paper's "special disk striping routines" of Section
// 4), and a per-request positioning overhead that is negligible for
// multi-block requests but dominates small ones — the Section 3.2 cost
// model, where requests of 30+ blocks make seek and rotational latency
// negligible.
package disk

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/device/meter"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config sets the performance and capacity model of a disk array.
type Config struct {
	// NumDisks is the number of drives (paper: n >= 2).
	NumDisks int
	// AggregateRate is the combined sustained transfer rate of all
	// drives in bytes per second (the paper's X_D). Each drive
	// sustains AggregateRate/NumDisks.
	AggregateRate float64
	// RequestOverhead is the per-request positioning cost (seek +
	// rotational latency) charged on each per-disk request.
	RequestOverhead sim.Duration
	// BlocksPerDisk is the scratch capacity of each drive in paper
	// blocks. Total array capacity D = NumDisks * BlocksPerDisk.
	BlocksPerDisk int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumDisks < 1 {
		return fmt.Errorf("disk: NumDisks %d < 1", c.NumDisks)
	}
	if c.AggregateRate <= 0 {
		return fmt.Errorf("disk: AggregateRate %v <= 0", c.AggregateRate)
	}
	if c.RequestOverhead < 0 {
		return errors.New("disk: negative RequestOverhead")
	}
	if c.BlocksPerDisk < 1 {
		return fmt.Errorf("disk: BlocksPerDisk %d < 1", c.BlocksPerDisk)
	}
	return nil
}

// SCSI2Pair returns a profile resembling the paper's platform: two
// drives on Fast SCSI-2 with an aggregate rate of twice the calibrated
// tape rate (the X_D = 2 X_T assumption of Section 5.3) and an ~18 ms
// positioning overhead per request.
func SCSI2Pair(totalBlocks int64) Config {
	return Config{
		NumDisks:        2,
		AggregateRate:   2 * 1.676e6,
		RequestOverhead: 18 * time.Millisecond,
		BlocksPerDisk:   (totalBlocks + 1) / 2,
	}
}

// LostError reports an operation that needed a permanently failed
// drive. It unwraps to fault.ErrDeviceLost, the class recovery acts
// on.
type LostError struct {
	Disk int
}

// Error implements error.
func (e *LostError) Error() string { return fmt.Sprintf("disk: drive disk%d lost", e.Disk) }

// Unwrap classifies the loss.
func (e *LostError) Unwrap() error { return fault.ErrDeviceLost }

type dev struct {
	id   int
	name string // "disk<id>", the resource, trace and fault-op name
	res  *sim.Resource
	used int64
	dead bool // permanently failed; extents on it are lost
}

// ErrFreed is returned for a request on a freed scratch file: a join
// that races recovery against cleanup degrades through the recovery
// machinery instead of crashing the process.
var ErrFreed = errors.New("disk: file freed")

// Mover moves the bytes of an array's scratch files; the array decides
// everything else. Before an extent sees a request the array has
// checked it, run the fault steps (where a drive can die), and charged
// the space on the file's placement drives.
type Mover interface {
	// Create opens the bytes of new file f.
	Create(f *File) (Extent, error)
	// Close releases the mover's OS resources. Safe to call more than
	// once.
	Close() error
}

// Extent holds one scratch file's bytes. Write and Read hold p for the
// transfer and meter it through the array.
type Extent interface {
	// Arm queues an OS-level fault verdict against the next transfer.
	Arm(dec fault.OSDecision)
	// Write moves blks to the file at block offset off, its end.
	Write(p *sim.Proc, off int64, blks []block.Block) error
	// Read delivers n blocks at block offset off.
	Read(p *sim.Proc, off, n int64) ([]block.Block, error)
	// Recycle takes back blocks a Read delivered (File.Recycle).
	Recycle(blks []block.Block)
	// Free releases the bytes.
	Free()
}

// Array is a disk array with explicit placement control: the paper's
// cost model of n drives over a byte mover. The embedded meter
// accounts every request and the allocated space.
type Array struct {
	meter.Meter
	cfg      Config
	mv       Mover
	disks    []*dev
	nextFile int
}

// NewArray returns an array attached to the kernel, moving its bytes
// through mv (nil: the simulator's in-memory mover).
func NewArray(k *sim.Kernel, cfg Config, mv Mover) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mv == nil {
		mv = simMover{}
	}
	a := &Array{Meter: meter.Disk("disk: file"), cfg: cfg, mv: mv}
	for i := 0; i < cfg.NumDisks; i++ {
		name := fmt.Sprintf("disk%d", i)
		a.disks = append(a.disks, &dev{id: i, name: name, res: sim.NewResource(k, name, 1)})
	}
	return a, nil
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// Close releases the mover's OS resources (I/O worker, scratch
// files); a no-op on the simulator. Safe to call more than once.
func (a *Array) Close() error { return a.mv.Close() }

// DeadDisks returns the ids of permanently failed drives, in order.
func (a *Array) DeadDisks() []int {
	var out []int
	for _, d := range a.disks {
		if d.dead {
			out = append(out, d.id)
		}
	}
	return out
}

// liveDisks returns the number of surviving drives.
func (a *Array) liveDisks() int {
	n := 0
	for _, d := range a.disks {
		if !d.dead {
			n++
		}
	}
	return n
}

// TotalCapacity returns the array capacity in blocks across surviving
// drives — a disk failure shrinks the effective D the planner sees.
func (a *Array) TotalCapacity() int64 {
	return int64(a.liveDisks()) * a.cfg.BlocksPerDisk
}

// Free returns unallocated blocks across the whole array.
func (a *Array) Free() int64 { return a.TotalCapacity() - a.Used() }

// BusyTime returns the summed busy time of all drives: every metered
// transfer plus its positioning overhead.
func (a *Array) BusyTime() sim.Duration {
	return a.Stats.TransferTime + a.Stats.OverheadTime
}

// perDiskRate returns one drive's sustained rate.
func (a *Array) perDiskRate() float64 {
	return a.cfg.AggregateRate / float64(a.cfg.NumDisks)
}

// transferTime returns the service time of an n-block request on one
// drive, including positioning overhead.
func (a *Array) transferTime(n int64) sim.Duration {
	bytes := float64(n) * block.VirtualSize
	return a.cfg.RequestOverhead + sim.Duration(bytes/a.perDiskRate()*float64(time.Second))
}

// File is a logical disk file striped round-robin over a set of
// drives. Reads and writes are charged to the owning drives in
// parallel: a request of n blocks over k drives completes in the time
// of the largest per-drive share, so large striped transfers run at
// the aggregate rate while single-block writes pay one drive's
// positioning overhead.
type File struct {
	a       *Array
	name    string
	disks   []*dev // placement, round-robin targets
	ext     Extent
	n       int64   // length in blocks
	perDisk []int64 // blocks charged to each placement drive
	freed   bool

	// shareBuf and liveBuf back the result of shares.
	shareBuf []int64
	liveBuf  []int
}

// Create makes an empty file placed on the given drives (nil = all
// drives). Space is charged as the file grows.
func (a *Array) Create(name string, placement []int) (*File, error) {
	f := &File{a: a, name: fmt.Sprintf("%s#%d", name, a.nextFile)}
	a.nextFile++
	if placement == nil {
		// Default placement snapshots the surviving drives, so files
		// created after a disk failure spread over the live array.
		for _, d := range a.disks {
			if !d.dead {
				f.disks = append(f.disks, d)
			}
		}
		if len(f.disks) == 0 {
			return nil, fmt.Errorf("disk: file %q: no surviving drives", name)
		}
		return a.open(f)
	}
	if len(placement) == 0 {
		return nil, fmt.Errorf("disk: file %q: empty placement", name)
	}
	for _, id := range placement {
		if id < 0 || id >= len(a.disks) {
			return nil, fmt.Errorf("disk: file %q: no drive %d", name, id)
		}
		if a.disks[id].dead {
			return nil, &LostError{Disk: id}
		}
		f.disks = append(f.disks, a.disks[id])
	}
	return a.open(f)
}

// open gives a placed file its bytes.
func (a *Array) open(f *File) (*File, error) {
	ext, err := a.mv.Create(f)
	if err != nil {
		return nil, fmt.Errorf("disk: file %q: %w", f.name, err)
	}
	f.ext = ext
	return f, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Len returns the file length in blocks.
func (f *File) Len() int64 { return f.n }

// shares splits an n-block transfer round-robin over the file's
// surviving drives, starting at the drive owning block offset off. The
// result is a per-file buffer, valid until the next call: read it
// before the caller next yields the control token.
func (f *File) shares(off, n int64) []int64 {
	if f.shareBuf == nil {
		f.shareBuf = make([]int64, len(f.disks))
		f.liveBuf = make([]int, 0, len(f.disks))
	}
	out := f.shareBuf
	clear(out)
	live := f.liveBuf[:0]
	for i, d := range f.disks {
		if !d.dead {
			live = append(live, i)
		}
	}
	k := int64(len(live))
	if k == 0 {
		return out
	}
	base := n / k
	rem := n % k
	for _, i := range live {
		out[i] = base
	}
	// The remainder lands on the drives following the starting one.
	for i := int64(0); i < rem; i++ {
		out[live[(off+i)%k]]++
	}
	return out
}

// lostOn returns a dead drive holding extents of this file, if any.
func (f *File) lostOn() (int, bool) {
	for i, d := range f.disks {
		if d.dead && f.perDisk != nil && f.perDisk[i] > 0 {
			return d.id, true
		}
	}
	return 0, false
}

// Lost reports whether the file lost extents to a failed drive.
// Striping spreads every block range over all placement drives, so a
// lost file is unreadable regardless of offset.
func (f *File) Lost() bool {
	_, lost := f.lostOn()
	return lost
}

// markDead records a permanent drive failure.
func (a *Array) markDead(p *sim.Proc, id int) {
	d := a.disks[id]
	if d.dead {
		return
	}
	d.dead = true
	a.Fault(p, d.name, "disk lost")
}

// checkFaults runs the fault steps of one request before any time is
// charged: first the array-wide transfer path ("disk"), then each
// placement drive the request would touch (where a pending
// disk-failure rule can kill the drive). OS-level verdicts are armed on
// the file's extent; corrupt=true asks the caller to Flip the
// delivered read data.
func (f *File) checkFaults(p *sim.Proc, off, n int64, write bool) (corrupt bool, err error) {
	if id, lost := f.lostOn(); lost {
		return false, &LostError{Disk: id}
	}
	alive := 0
	for _, d := range f.disks {
		if !d.dead {
			alive++
		}
	}
	if alive == 0 {
		return false, &LostError{Disk: f.disks[0].id}
	}
	a := f.a
	if a.Injector() == nil {
		return false, nil
	}
	ef, err := f.step(p, fault.Op{Write: write, Addr: off, N: n})
	if err != nil {
		return false, err
	}
	corrupt = ef.Corrupt
	sh := f.shares(off, n)
	for i, d := range f.disks {
		if sh[i] == 0 {
			continue
		}
		ef, err := f.step(p, fault.Op{Device: d.name, Write: write, Addr: off, N: sh[i]})
		if ef.Lost {
			a.markDead(p, d.id)
			return false, &LostError{Disk: d.id}
		}
		if err != nil {
			return false, err
		}
		corrupt = corrupt || ef.Corrupt
	}
	return corrupt, nil
}

// step runs one fault step of a request on f.
func (f *File) step(p *sim.Proc, op fault.Op) (fault.Effect, error) {
	ef, err := f.a.Step(p, op, f.name)
	if !ef.OS.Zero() {
		f.ext.Arm(ef.OS)
	}
	return ef, err
}

// simMover is the simulator's mover: each file's blocks in memory,
// moved by striped per-drive requests in the modelled time.
type simMover struct{}

func (simMover) Create(f *File) (Extent, error) { return &memFile{f: f}, nil }
func (simMover) Close() error                   { return nil }

// memFile is a file's bytes on the simulator.
type memFile struct {
	f      *File
	blocks []block.Block
}

func (m *memFile) Arm(fault.OSDecision)  {}
func (m *memFile) Free()                 { m.blocks = nil }
func (m *memFile) Recycle([]block.Block) {} // the blocks are the file's own

func (m *memFile) Write(p *sim.Proc, off int64, blks []block.Block) error {
	m.blocks = append(m.blocks, blks...)
	m.f.doIO(p, off, int64(len(blks)), true)
	return nil
}

func (m *memFile) Read(p *sim.Proc, off, n int64) ([]block.Block, error) {
	out := make([]block.Block, n)
	copy(out, m.blocks[off:off+n])
	m.f.doIO(p, off, n, false)
	return out, nil
}

// doIO charges an n-block transfer at offset off across the file's
// drives, overlapping the per-drive requests in virtual time.
func (f *File) doIO(p *sim.Proc, off, n int64, write bool) {
	if n <= 0 {
		return
	}
	sh := f.shares(off, n)
	var single *dev
	singles := 0
	for i, d := range f.disks {
		if sh[i] > 0 {
			single = d
			singles++
		}
	}
	span := f.a.Span(p)
	if singles == 1 {
		// Fast path: one drive involved, no helper task needed.
		single.res.Acquire(p)
		t0 := p.Now()
		p.Hold(f.a.transferTime(n))
		f.a.done(p, single, write, t0, n, span)
		single.res.Release(p)
		return
	}
	// One helper task per participating drive, queued in drive order;
	// the last share to finish wakes p.
	s := &stripe{f: f, parent: p, write: write, span: span, pending: singles,
		parts: make([]drivePart, 0, singles)}
	for i, d := range f.disks {
		if sh[i] == 0 {
			continue
		}
		s.parts = append(s.parts, drivePart{s: s, d: d, n: sh[i], t: f.a.transferTime(sh[i])})
		p.Kernel().SpawnTask(f.name, &s.parts[len(s.parts)-1])
	}
	p.Park("disk-io")
}

// done accounts one per-drive request of n blocks that held drive d
// from t0 until now, on behalf of phase span.
func (a *Array) done(p *sim.Proc, d *dev, write bool, t0 sim.Time, n, span int64) {
	a.Stats.OverheadTime += a.cfg.RequestOverhead
	a.Transfer(p, write, obs.Event{Device: d.name, Start: t0, Blocks: n, Span: span},
		sim.Duration(p.Now()-t0)-a.cfg.RequestOverhead)
	a.Done(p, write, n, t0)
}

// stripe is one striped request in flight: its per-drive parts and the
// proc waiting for them.
type stripe struct {
	f       *File
	parent  *sim.Proc
	write   bool
	span    int64
	pending int // parts not yet finished
	parts   []drivePart
}

// drivePart is one drive's share of a striped request, run as a sim
// task: acquire the drive, hold for the transfer, then record and
// release it — the steps a helper process would block through, taking
// the same resource and event slots.
type drivePart struct {
	s     *stripe
	d     *dev
	n     int64
	t     sim.Duration
	t0    sim.Time
	phase int // 0: acquire, 1: transfer, 2: done
}

// Step implements sim.Task.
func (dp *drivePart) Step(c *sim.Proc) bool {
	switch dp.phase {
	case 0:
		dp.phase = 1
		if !dp.d.res.AcquireOrQueue(c) {
			return false // dispatched again holding the drive
		}
		fallthrough
	case 1:
		dp.phase = 2
		dp.t0 = c.Now()
		c.WakeAfter(dp.t)
		return false
	}
	s := dp.s
	s.f.a.done(c, dp.d, s.write, dp.t0, dp.n, s.span)
	dp.d.res.Release(c)
	if s.pending--; s.pending == 0 {
		s.parent.Unpark()
	}
	return true
}

// Append writes blocks at the end of the file, blocking for the
// transfer time. It fails with fault.ErrDiskFull when the placement
// drives lack space.
func (f *File) Append(p *sim.Proc, blks []block.Block) error {
	if f.freed {
		return fmt.Errorf("disk: append to %q: %w", f.name, ErrFreed)
	}
	n := int64(len(blks))
	if n == 0 {
		return nil
	}
	off := f.n
	if _, err := f.checkFaults(p, off, n, true); err != nil {
		return err
	}
	if err := f.charge(n); err != nil {
		return err
	}
	f.n += n
	return f.ext.Write(p, off, blks)
}

// charge allocates n blocks of space on the file's drives, filling the
// emptiest drive first so the array stays balanced no matter how many
// small bucket files grow and shrink concurrently. It fails only when
// the placement drives are genuinely out of space in total.
func (f *File) charge(n int64) error {
	k := len(f.disks)
	if f.perDisk == nil {
		f.perDisk = make([]int64, k)
	}
	var free int64
	for _, d := range f.disks {
		if d.dead {
			continue
		}
		free += f.a.cfg.BlocksPerDisk - d.used
	}
	if free < n {
		return fmt.Errorf("%w: file %q needs %d blocks, placement has %d free",
			fault.ErrDiskFull, f.name, n, free)
	}
	wants := make([]int64, k)
	remaining := n
	for remaining > 0 {
		// Pick the drive with the most free space after pending wants.
		best, bestFree := -1, int64(0)
		for i, d := range f.disks {
			if d.dead {
				continue
			}
			df := f.a.cfg.BlocksPerDisk - d.used - wants[i]
			if df > bestFree {
				best, bestFree = i, df
			}
		}
		if best < 0 {
			panic("disk: free accounting inconsistent")
		}
		// Take an even share or whatever levels this drive with the
		// next-fullest, whichever is smaller, to avoid O(n) looping.
		take := remaining / int64(k-countFull(f.disks, wants, f.a.cfg.BlocksPerDisk))
		if take < 1 {
			take = 1
		}
		if take > bestFree {
			take = bestFree
		}
		if take > remaining {
			take = remaining
		}
		wants[best] += take
		remaining -= take
	}
	for i, d := range f.disks {
		d.used += wants[i]
		f.perDisk[i] += wants[i]
	}
	f.a.Alloc(n)
	return nil
}

// countFull reports how many placement drives have no free space left
// after pending wants.
func countFull(disks []*dev, wants []int64, capPerDisk int64) int {
	full := 0
	for i, d := range disks {
		if d.dead || capPerDisk-d.used-wants[i] <= 0 {
			full++
		}
	}
	if full >= len(disks) {
		full = len(disks) - 1 // avoid division by zero; caller checked total free
	}
	return full
}

// ReadAt reads n blocks at offset off, blocking for the transfer
// time.
func (f *File) ReadAt(p *sim.Proc, off, n int64) ([]block.Block, error) {
	if f.freed {
		return nil, fmt.Errorf("disk: read from %q: %w", f.name, ErrFreed)
	}
	if off < 0 || n < 0 || off+n > f.Len() {
		return nil, fmt.Errorf("disk: read [%d,%d) beyond len %d of %q", off, off+n, f.Len(), f.name)
	}
	corrupt, err := f.checkFaults(p, off, n, false)
	if err != nil {
		return nil, err
	}
	out, err := f.ext.Read(p, off, n)
	if err != nil {
		return nil, err
	}
	if corrupt {
		fault.Flip(out)
	}
	return out, nil
}

// Recycle hands back blocks this file's reads delivered, once their
// reader holds no alias to any of them (tape.Drive.Recycle states the
// rule). It is valid after Free: the bytes go back to the backend, not
// the file. Costs no virtual time.
func (f *File) Recycle(blks []block.Block) { f.ext.Recycle(blks) }

// Free releases the file's space. Freeing costs no virtual time.
func (f *File) Free() {
	if f.freed {
		return
	}
	for i, d := range f.disks {
		if f.perDisk != nil {
			d.used -= f.perDisk[i]
		}
	}
	f.a.Release(f.n)
	f.ext.Free()
	f.n = 0
	f.perDisk = nil
	f.freed = true
}
