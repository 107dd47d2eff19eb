// Package filedev is the real-I/O backend. It builds the same
// tape.Drive and disk.Array as the simulator — one device model owns
// exchanges, seeks, stop/start, placement, capacity, dead disks, the
// fault step and metering — and supplies only the byte movers under
// them: cartridges and disk scratch map to OS files, and a transfer
// costs the wall-clock time the OS actually took, charged into the
// simulation clock so phase spans and stats report honest hardware
// numbers.
//
// A drive's mover streams length-prefixed, CRC-framed block records
// through a spool file; a store's mover keeps one record file per
// scratch file, read and written at direct offsets. Transfers run
// through per-device ioengine workers: the calling proc plans the
// operation while it holds the simulation's control token (index
// bookkeeping, offset reservation), submits the pure OS syscalls to
// the device's worker goroutine, and yields the token until the worker
// posts completion. Independent devices therefore overlap in
// wall-clock time — the paper's max() cost composition — while the
// kernel's virtual schedule stays deterministic. OS-level fault
// verdicts from the device's fault step are armed on the record file
// the planned syscalls touch.
//
// The mounted tape.Medium stays authoritative for content: the drive
// records appends and overwrites on it, and a mount respools the
// medium's current contents into the drive's spool file. That keeps
// media state consistent across unload/reload, shared-transport
// degrades, and the workload engine's mount scheduling, while every
// in-run transfer still moves real bytes through the OS.
package filedev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/faultfile"
	"repro/internal/device/ioengine"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tape"
)

// SyncPolicy controls when a transfer's written data is fsynced to
// the underlying device. Without syncing, OS writes land in the page
// cache and the "measured transfer" is mostly a memcpy. It governs
// transfers only: a mount's respool is setup, written outside any
// measured transfer, and only SyncAlways fsyncs it (once, at the end).
type SyncPolicy int

const (
	// SyncInterval fsyncs a file after every 8 MB of transfer writes
	// (the default): real storage is hit regularly without paying a
	// barrier per record. A mount's respool never counts toward it.
	SyncInterval SyncPolicy = iota
	// SyncNone never fsyncs; data durability is the page cache's
	// problem. Fastest, least honest.
	SyncNone
	// SyncAlways fsyncs after every write operation before its
	// transfer is charged done, and once at the end of a mount's
	// respool.
	SyncAlways
)

// defaultSyncEvery is the SyncInterval flush threshold.
const defaultSyncEvery = 8 << 20

func (s SyncPolicy) String() string {
	switch s {
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// ParseSyncPolicy maps the CLI spelling of a sync policy to its value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("filedev: unknown sync policy %q (want none, interval or always)", s)
}

// Backend builds file-backed drives and stores rooted in one scratch
// directory. The zero Dir uses the process temp directory.
type Backend struct {
	// Dir is the root scratch directory; it is created on demand.
	Dir string
	// Sync selects the fsync policy for written data (default
	// SyncInterval).
	Sync SyncPolicy
	// OpTimeout, when positive, bounds each device operation's
	// wall-clock execution on its worker: an op past the deadline
	// fails with a typed, retryable error, repeated misses degrade the
	// device's health, and TripAfter consecutive misses trip its
	// circuit breaker (the device then fails fast with
	// fault.ErrDeviceFailed and the join's recovery machinery rebuilds
	// on surviving resources). Zero disables deadlines.
	OpTimeout time.Duration
	// TripAfter overrides the consecutive-timeout count that trips a
	// device's breaker (ioengine.DefaultTripAfter when zero).
	TripAfter int
	// RetryMax overrides the device-layer retry count for timed-out
	// and transient operations (negative disables retries; zero keeps
	// the engine default).
	RetryMax int
	// PaceScale, when positive, paces every transfer to occupy at
	// least the modeled device time divided by PaceScale in
	// wall-clock: the backend emulates the paper's device bandwidths
	// sped up PaceScale×, instead of running at page-cache speed where
	// every transfer is a near-instant memcpy. The sleep happens on
	// the device worker, off the control token, so paced transfers on
	// independent devices genuinely overlap in real time — this is
	// what makes the concurrent methods' wall-clock advantage
	// measurable on local files. Zero (the default) disables pacing.
	PaceScale float64
	// Flight, when set before the first device is built, receives the
	// engine's timeout / health-transition / retry events for live
	// observability. Nil records nothing.
	Flight *obs.FlightRecorder

	// syncEvery overrides the SyncInterval flush threshold
	// (defaultSyncEvery when zero); a test hook.
	syncEvery int64

	mu     sync.Mutex // guards engine
	engine *ioengine.Engine

	// bufs holds the read buffers a join handed back with Recycle;
	// every device the backend builds reads into them.
	bufs bufPool
}

var _ device.Backend = &Backend{}
var _ device.WallStatser = &Backend{}
var _ device.HealthReporter = &Backend{}

// New returns a backend rooted at dir.
func New(dir string) *Backend { return &Backend{Dir: dir} }

// Name implements device.Backend.
func (b *Backend) Name() string { return "file" }

// Engine returns the backend's async I/O engine. The engine is shared
// by every device the backend builds, so its wall stats cover the
// whole device complex. It is built on first use under the backend's
// lock, because a telemetry scrape may read it while a join builds its
// devices.
func (b *Backend) Engine() *ioengine.Engine {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.engine == nil {
		b.engine = ioengine.New(0)
		pol := ioengine.Policy{OpTimeout: b.OpTimeout, TripAfter: b.TripAfter}
		if b.RetryMax != 0 {
			pol.Retry = ioengine.RetryPolicy{Max: b.RetryMax, Base: ioengine.DefaultRetry.Base}
			if b.RetryMax < 0 {
				pol.Retry = ioengine.RetryPolicy{Max: 0, Base: 1}
			}
		}
		b.engine.SetPolicy(pol)
		b.engine.SetFlight(b.Flight)
	}
	return b.engine
}

// built returns the engine if one has been built, without building it.
func (b *Backend) built() *ioengine.Engine {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.engine
}

// DeviceHealths implements device.HealthReporter: the live health of
// every device worker the backend has built.
func (b *Backend) DeviceHealths() []ioengine.DeviceHealth {
	if e := b.built(); e != nil {
		return e.DeviceHealths()
	}
	return nil
}

// WallStats implements device.WallStatser: merged wall-clock busy time
// per device and the cross-device overlap fraction. Zero before the
// first device is built.
func (b *Backend) WallStats() ioengine.WallStats {
	if e := b.built(); e != nil {
		return e.WallStats()
	}
	return ioengine.WallStats{}
}

// PublishWallMetrics implements device.WallStatser: per-device wall
// busy-seconds gauges plus the overlap fraction.
func (b *Backend) PublishWallMetrics(reg *obs.Registry) {
	if e := b.built(); e != nil {
		e.PublishMetrics(reg)
	}
}

// worker builds a device worker.
func (b *Backend) worker(name string) *ioengine.Worker {
	return b.Engine().Worker(name)
}

// syncBytes returns the effective SyncInterval threshold.
func (b *Backend) syncBytes() int64 {
	if b.syncEvery > 0 {
		return b.syncEvery
	}
	return defaultSyncEvery
}

// mkdirTemp is a test hook for injecting constructor failures.
var mkdirTemp = os.MkdirTemp

// scratch makes a fresh unique directory for one device under the
// backend root.
func (b *Backend) scratch(kind, name string) (string, error) {
	root := b.Dir
	if root == "" {
		root = os.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return mkdirTemp(root, fmt.Sprintf("%s-%s-", kind, sanitize(name)))
}

// sanitize keeps device names path-safe.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// NewDrive implements device.Backend.
func (b *Backend) NewDrive(k *sim.Kernel, name string, cfg device.DriveConfig) (device.Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mv, err := b.newSpool(name)
	if err != nil {
		return nil, err
	}
	d := tape.NewDrive(k, name, cfg, mv)
	d.OS(mv.w)
	return d, nil
}

// NewSharedDrivePair implements device.Backend: two logical drives
// behind one transport, each with its own spool, for the
// post-drive-loss degraded configuration.
func (b *Backend) NewSharedDrivePair(k *sim.Kernel, nameA, nameB string, cfg device.DriveConfig) (device.Drive, device.Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	ma, err := b.newSpool(nameA)
	if err != nil {
		return nil, nil, err
	}
	mb, err := b.newSpool(nameB)
	if err != nil {
		ma.Close() // release the first drive's worker and scratch dir
		return nil, nil, err
	}
	da, db := tape.NewSharedDrivePair(k, nameA, nameB, cfg, ma, mb)
	da.OS(ma.w)
	db.OS(mb.w)
	return da, db, nil
}

// NewStore implements device.Backend.
func (b *Backend) NewStore(k *sim.Kernel, cfg device.StoreConfig) (device.Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dir, err := b.scratch("disk", "store")
	if err != nil {
		return nil, err
	}
	mv := &store{b: b, dir: dir, w: b.worker("disk")}
	a, err := disk.NewArray(k, cfg, mv)
	if err != nil {
		mv.Close()
		return nil, err
	}
	mv.a = a
	a.OS(mv.w)
	return a, nil
}

// syncer applies the backend's SyncPolicy to one file's transfer
// writes. It is touched only by the device worker executing that
// file's writes, so it needs no locking.
type syncer struct {
	policy SyncPolicy
	every  int64
	dirty  int64
}

// wrote records n freshly written bytes and fsyncs per policy.
func (s *syncer) wrote(f *faultfile.File, n int64) error {
	switch s.policy {
	case SyncNone:
		return nil
	case SyncAlways:
		return f.Sync()
	default:
		s.dirty += n
		if s.dirty >= s.every {
			s.dirty = 0
			return f.Sync()
		}
		return nil
	}
}

// flush forces out any deferred dirty bytes.
func (s *syncer) flush(f *faultfile.File) error {
	if s.policy == SyncInterval && s.dirty > 0 {
		s.dirty = 0
		return f.Sync()
	}
	return nil
}

// recFile is a checksummed length-prefixed block-record file with an
// in-memory index: record i of the logical device lives at index[i]
// with length lens[i] and stored CRC crcs[i]. Overwrites append a
// fresh record and repoint the index — the file itself is append-only,
// like a tape with block remapping.
//
// Every record frame is [len u32][crc32(payload) u32][payload], both
// little-endian, and every read verifies the payload against the CRC
// captured at plan time: torn writes, bit rot and truncated tails all
// surface as typed fault.ErrCorrupt instead of silently joining wrong
// bytes. (The join layer re-verifies the block-level checksum on top —
// the frame CRC catches corruption below the block encoding.)
//
// Operations are split so the async path has no shared mutable state:
// planAppend/planRead mutate the index and reserve offsets on the
// token-holding proc, and execWrites/execReads run pure positioned
// syscalls on the device worker (positioned I/O is goroutine-safe).
// Only what a later plan needs is done at plan time: a write's frames
// and CRCs (a read planned before the write executes must know them),
// never a read's buffers, which execReads takes on the worker from the
// backend's pool of recycled buffers (bufPool).
// FIFO submission on one worker orders a write before any read of the
// same reserved offset. The underlying OS file is wrapped by
// faultfile.File, so fault decisions made at plan time can strike the
// syscalls themselves.
type recFile struct {
	// f is accessed atomically: close runs on the token-holding proc,
	// but a zombie op — one that outlived its deadline grace and was
	// abandoned by the engine — may still be executing on the worker
	// goroutine when the join tears the file down. The zombie loads the
	// pointer once; if it lost the race it sees nil (or a closed OS
	// file) and returns an error nobody is waiting for. os.File's own
	// fd refcounting makes Close concurrent with WriteAt/ReadAt safe.
	f     atomic.Pointer[faultfile.File]
	index []int64
	lens  []int32
	crcs  []uint32
	end   int64 // append offset
	sync  syncer
	bufs  *bufPool // the backend's read buffers
}

// recHeader is the per-record frame overhead: length + payload CRC.
const recHeader = 8

func (b *Backend) createRecFile(path string) (*recFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	r := &recFile{sync: syncer{policy: b.Sync, every: b.syncBytes()}, bufs: &b.bufs}
	r.f.Store(faultfile.Wrap(f))
	return r, nil
}

// arm queues one OS-level fault decision against the file's next
// syscall. Called under the control token, before the planned ops are
// submitted.
func (r *recFile) arm(dec fault.OSDecision) {
	if f := r.f.Load(); f != nil {
		f.Arm(dec)
	}
}

// frameChunk is the capacity of a pooled frame buffer, and so the most
// a respool writes in one syscall. Records are framed whole into a
// chunk; a record larger than a chunk grows its chunk past frameChunk,
// and putFrame leaves such a chunk to the GC, so the pool keeps no
// large buffers.
const frameChunk = 1 << 20

// framePool recycles frame chunks (*[]byte of capacity frameChunk).
var framePool sync.Pool

func getFrame() *[]byte {
	if p, ok := framePool.Get().(*[]byte); ok {
		return p
	}
	b := make([]byte, 0, frameChunk)
	return &b
}

// putFrame returns a chunk to the pool once no syscall can still read
// it; a chunk that outgrew frameChunk is left to the GC.
func putFrame(p *[]byte) {
	if cap(*p) == frameChunk {
		*p = (*p)[:0]
		framePool.Put(p)
	}
}

// frame appends blk's record frame to buf, registers it at logical
// position pos (repointing an existing entry or extending the index by
// exactly one record) and reserves its file offset.
func (r *recFile) frame(buf []byte, pos int64, blk block.Block) ([]byte, error) {
	if pos > int64(len(r.index)) {
		return buf, fmt.Errorf("filedev: write at %d leaves a gap (len %d)", pos, len(r.index))
	}
	off, crc := r.end, crc32.ChecksumIEEE(blk)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blk)))
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	buf = append(buf, blk...)
	r.end = off + recHeader + int64(len(blk))
	if pos < int64(len(r.index)) {
		r.index[pos], r.lens[pos], r.crcs[pos] = off, int32(len(blk)), crc
	} else {
		r.index = append(r.index, off)
		r.lens = append(r.lens, int32(len(blk)))
		r.crcs = append(r.crcs, crc)
	}
	return buf, nil
}

// writeOp is one planned record write: frame header and payload,
// contiguous at a reserved offset.
type writeOp struct {
	off  int64
	data []byte
}

// writePlan is a planned request: one op per record, slicing the
// pooled chunks the records were framed into.
type writePlan struct {
	ops    []writeOp
	chunks []*[]byte
}

// release returns the plan's chunks to the pool. Call it only after
// the worker's Do that ran the plan returned nil: Do re-runs the same
// closure on retry, and after an error a timed-out zombie attempt may
// still be writing from the chunks, so they are left to the GC.
func (w *writePlan) release() {
	for _, c := range w.chunks {
		putFrame(c)
	}
	w.chunks = nil
}

// planAppend registers blks at logical positions pos, pos+1, ... and
// frames them back to back into pooled chunks, returning the plan to
// execute; pos may repoint existing entries or extend the index by
// exactly one record at a time. The index is updated before any byte
// is written — the ops must be submitted to the file's worker before
// the token is released.
func (r *recFile) planAppend(pos int64, blks []block.Block) (*writePlan, error) {
	w := &writePlan{ops: make([]writeOp, 0, len(blks))}
	var c *[]byte
	for _, blk := range blks {
		if c == nil || len(*c)+recHeader+len(blk) > cap(*c) {
			c = getFrame()
			w.chunks = append(w.chunks, c)
		}
		off, start := r.end, len(*c)
		buf, err := r.frame(*c, pos, blk)
		*c = buf
		if err != nil {
			w.release()
			return nil, err
		}
		w.ops = append(w.ops, writeOp{off: off, data: buf[start:]})
		pos++
	}
	return w, nil
}

// execWrites performs planned writes, one WriteAt per record so an
// armed OS decision strikes exactly one record, and applies the sync
// policy. Safe to run off the control token.
func (r *recFile) execWrites(ops []writeOp) error {
	f := r.f.Load()
	if f == nil {
		return fmt.Errorf("filedev: write on released file: %w", os.ErrClosed)
	}
	var n int64
	for _, op := range ops {
		if _, err := f.WriteAt(op.data, op.off); err != nil {
			return err
		}
		n += int64(len(op.data))
	}
	return r.sync.wrote(f, n)
}

// readOp is one planned record read: the logical record number, the
// payload offset and length, and the expected payload CRC.
type readOp struct {
	rec int64
	off int64
	n   int32
	crc uint32
}

// planRead resolves n records starting at logical position off into
// positioned reads with expected checksums.
func (r *recFile) planRead(off, n int64) ([]readOp, error) {
	if off < 0 || n < 0 || off+n > int64(len(r.index)) {
		return nil, fmt.Errorf("filedev: read [%d,%d) out of range [0,%d)", off, off+n, len(r.index))
	}
	ops := make([]readOp, n)
	for i := int64(0); i < n; i++ {
		rec := off + i
		ops[i] = readOp{rec: rec, off: r.index[rec] + recHeader, n: r.lens[rec], crc: r.crcs[rec]}
	}
	return ops, nil
}

// execReads performs planned reads, one record per buffer from the
// backend's pool (a recycled one when there is one, else a fresh one),
// and verifies each record against its stored checksum, converting
// short reads and payload mismatches into typed fault.ErrCorrupt that
// name the logical record. Safe to run off the control token: the
// buffers are only this call's until it returns them (a failed call
// leaves the ones it took to the GC).
func (r *recFile) execReads(ops []readOp) ([]block.Block, error) {
	f := r.f.Load()
	if f == nil {
		return nil, fmt.Errorf("filedev: read on released file: %w", os.ErrClosed)
	}
	out := make([]block.Block, len(ops))
	for i, op := range ops {
		buf := r.bufs.get(int(op.n))
		n, err := f.ReadAt(buf, op.off)
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			return nil, fmt.Errorf("filedev: record %d truncated (%d of %d bytes): %w",
				op.rec, n, len(buf), fault.ErrCorrupt)
		case err != nil:
			return nil, fmt.Errorf("filedev: record %d: %w", op.rec, err)
		}
		if got := crc32.ChecksumIEEE(buf); got != op.crc {
			return nil, fmt.Errorf("filedev: record %d: stored crc %08x, read %08x: %w",
				op.rec, op.crc, got, fault.ErrCorrupt)
		}
		out[i] = buf
	}
	return out, nil
}

// bufPool recycles record read buffers. A block a read delivers is the
// join's until it hands it back with Recycle (tape.Mover, disk.Extent);
// put then pools it for the next read. Buffers travel in *[]byte boxes,
// and emptied boxes wait in boxes, so neither a get nor a put allocates
// once the pools are warm. Under the race detector put first poisons
// each buffer, so a consumer that kept an alias reads garbage.
type bufPool struct {
	bufs  sync.Pool // *[]byte holding a recycled buffer
	boxes sync.Pool // empty *[]byte
}

// get returns an n-byte buffer: a recycled one when the pool offers
// one large enough, else a fresh one. A recycled buffer that is too
// small is left to the GC.
func (bp *bufPool) get(n int) []byte {
	if box, ok := bp.bufs.Get().(*[]byte); ok {
		b := *box
		*box = nil
		bp.boxes.Put(box)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// put pools every block of blks. The caller holds no alias to any of
// them, and nor may anything else.
func (bp *bufPool) put(blks []block.Block) {
	for _, b := range blks {
		if raceEnabled {
			b = b[:cap(b)]
			for i := range b {
				b[i] = 0xA5
			}
		}
		box, ok := bp.boxes.Get().(*[]byte)
		if !ok {
			box = new([]byte)
		}
		*box = b
		bp.bufs.Put(box)
	}
}

// respool writes blks as the first records of a fresh file, inline on
// the token holder. It is setup, not a transfer: records are framed
// into one pooled chunk at a time and each chunk goes out in a single
// WriteAt (no OS decision can be armed on a fresh file yet), the
// syncer never sees the bytes, and only SyncAlways fsyncs them, once at
// the end — so no transfer's measured time pays for their writeback.
func (r *recFile) respool(blks []block.Block) error {
	f := r.f.Load()
	c := getFrame()
	start := r.end
	for _, blk := range blks {
		if len(*c) > 0 && len(*c)+recHeader+len(blk) > cap(*c) {
			if _, err := f.WriteAt(*c, start); err != nil {
				return err
			}
			*c, start = (*c)[:0], r.end
		}
		// Framing at the end of the index cannot leave a gap.
		*c, _ = r.frame(*c, int64(len(r.index)), blk)
	}
	if _, err := f.WriteAt(*c, start); err != nil {
		return err
	}
	putFrame(c)
	if r.sync.policy == SyncAlways {
		return f.Sync()
	}
	return nil
}

func (r *recFile) close() error {
	f := r.f.Swap(nil)
	if f == nil {
		return nil
	}
	return f.Close()
}

// pace returns the minimum wall-clock occupancy of a transfer the
// device model times at model, or zero when pacing is off.
func (b *Backend) pace(model sim.Duration) time.Duration {
	if b.PaceScale <= 0 {
		return 0
	}
	return time.Duration(float64(model) / b.PaceScale)
}

// paced wraps op so it occupies at least min of wall-clock time. The
// sleep runs on the device worker, so paced transfers on independent
// devices overlap like the hardware they emulate.
func paced(min time.Duration, op func() error) func() error {
	if min <= 0 {
		return op
	}
	return func() error {
		t0 := time.Now()
		err := op()
		if rest := min - time.Since(t0); rest > 0 {
			time.Sleep(rest)
		}
		return err
	}
}

// remove deletes a device's scratch directory, ignoring errors — the
// OS temp cleaner is the backstop.
func remove(dir string) {
	if dir != "" && dir != string(filepath.Separator) {
		os.RemoveAll(dir)
	}
}
