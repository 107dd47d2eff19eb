// Package meter is the one place a device reports what its requests
// cost. A Meter owns the device's tape_* or disk_* series (names, HELP
// texts, labels and registration order), its obs events for every
// transfer, seek and exchange, its fault step, its cumulative Stats,
// and a store's space ledger. The one tape drive (tape.Drive) and the
// one disk store (disk.Array) each embed one, so both backends account
// I/O the same way and the device.Instrumented wiring is written once.
package meter

import (
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stats accumulates a device's activity. Fields a device does not
// model stay zero (a disk never seeks or exchanges; only the
// simulator's disk mover charges a per-request overhead).
type Stats struct {
	BlocksRead    int64
	BlocksWritten int64
	// Requests counts requests served: per drive request on tape;
	// on a disk array, per member-drive request on the simulator and
	// per file request on the file backend (one OS file per file).
	Requests      int64
	Seeks         int64
	SeekTime      sim.Duration
	TransferTime  sim.Duration
	StartStops    int64
	StartStopTime sim.Duration
	Exchanges     int64
	ExchangeTime  sim.Duration
	OverheadTime  sim.Duration
	// Fault-injection activity (see internal/fault).
	fault.Counts
}

// Meter accounts one device's requests. The zero value is not usable:
// build one with Tape or Disk.
type Meter struct {
	Stats Stats

	dev  string // event and fault-op device: "tape:NAME" or "disk"
	who  string // fault-error prefix, e.g. "tape: drive"
	name string // tape drive name, for the drive label
	tape bool
	os   bool // OS-level fault rules may fire (real file I/O)
	// worker registers its own series ahead of the device's; nil on
	// the simulator.
	worker interface{ SetMetrics(*obs.Registry) }

	tracker *obs.Tracker
	inj     fault.Injector
	met     series
	shared  *transport

	used, high int64 // store space ledger, in blocks
}

// series are the exported handles. They are nil-safe, so accounting
// calls them unconditionally.
type series struct {
	read, written, seeks, exchanges *obs.Counter
	latency                         *obs.Histogram
	used                            *obs.Gauge
}

// Tape returns the meter of tape drive name; its fault errors read
// `who "name": cause`.
func Tape(who, name string) Meter {
	return Meter{dev: "tape:" + name, who: who, name: name, tape: true}
}

// Disk returns the meter of a disk store; its fault errors read
// `who "file": cause`.
func Disk(who string) Meter { return Meter{dev: "disk", who: who} }

// OS marks the device as real OS I/O: OS-level fault rules may fire on
// its requests, and worker's series register ahead of the device's
// own in SetMetrics.
func (m *Meter) OS(worker interface{ SetMetrics(*obs.Registry) }) {
	m.os, m.worker = true, worker
}

// SetTracker attaches the run tracker that records device events
// (nil disables tracing).
func (m *Meter) SetTracker(t *obs.Tracker) { m.tracker = t }

// SetInjector attaches the fault injector consulted on every request
// (nil disables injection).
func (m *Meter) SetInjector(inj fault.Injector) { m.inj = inj }

// Injector returns the attached fault injector, or nil: a device whose
// fault step fans out over member drives skips that work without one.
func (m *Meter) Injector() fault.Injector { return m.inj }

// SetMetrics registers the device's series in reg (nil detaches).
func (m *Meter) SetMetrics(reg *obs.Registry) {
	if m.worker != nil {
		m.worker.SetMetrics(reg)
	}
	switch {
	case reg == nil:
		m.met = series{}
	case m.tape:
		l := obs.A("drive", m.name)
		m.met = series{
			read:      reg.Counter("tape_blocks_read_total", "Blocks read from tape.", l),
			written:   reg.Counter("tape_blocks_written_total", "Blocks written to tape.", l),
			seeks:     reg.Counter("tape_seeks_total", "Head repositioning seeks.", l),
			exchanges: reg.Counter("tape_exchanges_total", "Robot cartridge exchanges.", l),
			latency: reg.Histogram("tape_request_seconds",
				"Virtual latency of tape requests, queueing included.", obs.DeviceLatencyBuckets, l),
		}
	default:
		m.met = series{
			read:    reg.Counter("disk_blocks_read_total", "Blocks read from the disk array."),
			written: reg.Counter("disk_blocks_written_total", "Blocks written to the disk array."),
			latency: reg.Histogram("disk_request_seconds",
				"Virtual latency of per-drive disk requests.", obs.DeviceLatencyBuckets),
			used: reg.Gauge("disk_used_blocks", "Blocks currently allocated on the array."),
		}
	}
}

// DriveStats snapshots the device's cumulative activity (device.Drive).
func (m *Meter) DriveStats() Stats { return m.Stats }

// DiskStats snapshots the device's cumulative activity (device.Store).
func (m *Meter) DiskStats() Stats { return m.Stats }

// Step runs the fault step of one request, with the device held and
// before any time is charged. op.Device defaults to the device itself
// (a striped array names a member drive); name is the drive or file
// the request addresses, for the error text.
func (m *Meter) Step(p *sim.Proc, op fault.Op, name string) (fault.Effect, error) {
	if m.inj == nil {
		return fault.Effect{}, nil
	}
	if op.Device == "" {
		op.Device = m.dev
	}
	op.OS = m.os
	return m.Stats.Step(p, m.inj, m.tracker, op, m.who, name)
}

// Fault records a zero-length fault event on member device dev.
func (m *Meter) Fault(p *sim.Proc, dev, note string) {
	m.tracker.Record(p, obs.Event{Device: dev, Kind: obs.Fault, Start: p.Now(), End: p.Now(), Note: note})
}

// Seek charges a head repositioning taking d: it holds p, counts the
// seek and records a tape-seek event. A zero d is free and uncounted.
func (m *Meter) Seek(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	m.Stats.Seeks++
	m.Stats.SeekTime += d
	m.met.seeks.Inc()
	m.hold(p, obs.TapeSeek, d)
}

// Exchange charges a robot cartridge exchange taking d, for a request
// that crosses onto another cartridge of a volume set or a switch of a
// shared transport: it holds p for d, records a tape-exchange event and
// counts the exchange in Stats and tape_exchanges_total.
func (m *Meter) Exchange(p *sim.Proc, d sim.Duration) {
	if d > 0 {
		m.hold(p, obs.TapeExchange, d)
	}
	m.Stats.Exchanges++
	m.Stats.ExchangeTime += d
	m.met.exchanges.Inc()
}

// hold holds p for d and records it as one event of kind.
func (m *Meter) hold(p *sim.Proc, kind obs.Kind, d sim.Duration) {
	t0 := p.Now()
	p.Hold(d)
	m.tracker.Record(p, obs.Event{Device: m.dev, Kind: kind, Start: t0, End: p.Now()})
}

// transport is the one physical drive behind a shared pair.
type transport struct{ active *Meter }

// Share puts two drives' meters behind one transport: the degraded
// pair a drive loss leaves, where the robot swaps cartridges whenever
// the other drive takes the transport.
func Share(a, b *Meter) {
	t := &transport{}
	a.shared, b.shared = t, t
}

// SwitchIn makes m its transport's active drive, with the transport
// held. The first use is free; each later switch charges d as a
// cartridge Exchange and reports true: the caller's head then sits at
// the start of the cartridge. A dedicated drive never switches.
func (m *Meter) SwitchIn(p *sim.Proc, d sim.Duration) bool {
	t := m.shared
	if t == nil || t.active == m {
		return false
	}
	prev := t.active
	t.active = m
	if prev == nil {
		return false
	}
	m.Exchange(p, d)
	return true
}

// Transfer accounts d of transfer time for e.Blocks blocks moved over
// [e.Start, now] and records e as the device's read or write event.
// e.Device defaults to the device itself; a striped array names the
// member drive and stamps the issuing span, since its helper tasks
// carry none.
func (m *Meter) Transfer(p *sim.Proc, write bool, e obs.Event, d sim.Duration) {
	m.Stats.TransferTime += d
	if m.tracker == nil {
		return
	}
	if e.Device == "" {
		e.Device = m.dev
	}
	e.Kind = m.kind(write)
	e.End = p.Now()
	m.tracker.Record(p, e)
}

func (m *Meter) kind(write bool) obs.Kind {
	switch {
	case m.tape && write:
		return obs.TapeWrite
	case m.tape:
		return obs.TapeRead
	case write:
		return obs.DiskWrite
	}
	return obs.DiskRead
}

// Span is the phase span p is issuing requests under, for a striped
// array to stamp on its member drives' events.
func (m *Meter) Span(p *sim.Proc) int64 { return m.tracker.ActiveSpan(p) }

// Done closes one request of n blocks that the device took at t0: it
// counts the request and its blocks and observes its latency. A tape
// drive passes the request's entry time, so its latency includes
// queueing; a disk store passes the time its drive took the request.
func (m *Meter) Done(p *sim.Proc, write bool, n int64, t0 sim.Time) {
	m.Stats.Requests++
	if write {
		m.Stats.BlocksWritten += n
		m.met.written.Add(float64(n))
	} else {
		m.Stats.BlocksRead += n
		m.met.read.Add(float64(n))
	}
	m.met.latency.Observe(sim.Duration(p.Now() - t0).Seconds())
}

// Alloc charges n newly allocated blocks to the store's ledger; the
// store checks its capacity first.
func (m *Meter) Alloc(n int64) {
	m.used += n
	if m.used > m.high {
		m.high = m.used
	}
	m.met.used.Set(float64(m.used))
}

// Release returns n blocks of a freed file to the ledger.
func (m *Meter) Release(n int64) {
	m.used -= n
	m.met.used.Set(float64(m.used))
}

// Used is the store's allocated space in blocks.
func (m *Meter) Used() int64 { return m.used }

// HighWater is the peak allocated space since the last reset.
func (m *Meter) HighWater() int64 { return m.high }

// ResetHighWater restarts peak tracking from the current usage, so
// each of a session's joins reports its own disk footprint.
func (m *Meter) ResetHighWater() { m.high = m.used }
