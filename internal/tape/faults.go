package tape

import (
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SetInjector attaches a fault injector consulted on every drive
// request (nil disables injection).
func (d *Drive) SetInjector(inj fault.Injector) { d.inj = inj }

// consult runs the fault step of one request while the drive is held:
// corrupt=true asks the caller to Flip the delivered copy.
func (d *Drive) consult(p *sim.Proc, write bool, addr Addr, n int64) (corrupt bool, err error) {
	ef, err := d.Stats.Step(p, d.inj, d.tracker, fault.Op{
		Device: "tape:" + d.name, Write: write, Addr: int64(addr), N: n,
	}, "tape: drive", d.name)
	d.lost = d.lost || ef.Lost
	return ef.Corrupt, err
}

// Lost reports whether an injected drive failure has killed this
// drive's transport.
func (d *Drive) Lost() bool { return d.lost }

// transport is the single physical drive behind a shared drive pair.
type transport struct {
	res    *sim.Resource
	active *Drive
}

// NewSharedDrivePair returns two logical drives multiplexed onto ONE
// physical transport — the degraded configuration after a drive
// failure leaves a two-tape join with a single working drive. The
// drives serialize on the shared transport, and switching between them
// charges a media exchange (the robot swaps cartridges) plus the
// repositioning seek back to where that cartridge's head was needed.
func NewSharedDrivePair(k *sim.Kernel, nameA, nameB string, cfg DriveConfig) (*Drive, *Drive) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	tr := &transport{res: sim.NewResource(k, "tape:"+nameA+"+"+nameB, 1)}
	a := &Drive{name: nameA, k: k, cfg: cfg, res: tr.res, shared: tr}
	b := &Drive{name: nameB, k: k, cfg: cfg, res: tr.res, shared: tr}
	return a, b
}

// switchIn makes d the transport's active cartridge, charging the
// exchange and losing the head position (a freshly mounted cartridge
// rewinds to the start of its current volume). Called with the
// transport held. No-op for dedicated drives.
func (d *Drive) switchIn(p *sim.Proc) {
	if d.shared == nil || d.shared.active == d {
		return
	}
	if d.shared.active != nil {
		if d.cfg.ExchangeTime > 0 {
			t0 := p.Now()
			p.Hold(d.cfg.ExchangeTime)
			d.record(p, obs.TapeExchange, t0, 0)
		}
		d.Stats.Exchanges++
		d.Stats.ExchangeTime += d.cfg.ExchangeTime
		if d.media != nil {
			d.pos = d.media.volumeSpan(d.curVol).Start
		}
		d.started = false
		d.reverse = false
	}
	d.shared.active = d
}
