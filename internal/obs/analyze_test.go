package obs

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func span(id, parent int64, name string, start, end sim.Time) *Span {
	return &Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func ev(dev string, kind Kind, start, end sim.Time, blocks, spanID int64) Event {
	return Event{Device: dev, Kind: kind, Start: start, End: end, Blocks: blocks, Span: spanID}
}

func TestAnalyzeOverlapAndBottleneck(t *testing.T) {
	// Phase "par": tape and disk fully concurrent for 10s each.
	// Phase "seq": tape 10s then disk 10s, strictly alternating.
	spans := []*Span{
		span(1, 0, "par", 0, secs(10)),
		span(2, 0, "seq", secs(10), secs(30)),
	}
	events := []Event{
		ev("tape:S", TapeRead, 0, secs(10), 100, 1),
		ev("disk0", DiskWrite, 0, secs(10), 80, 1),
		ev("tape:S", TapeRead, secs(10), secs(20), 100, 2),
		ev("disk0", DiskWrite, secs(20), secs(30), 80, 2),
	}
	r := Analyze(spans, events, secs(30))

	if len(r.Phases) != 2 {
		t.Fatalf("got %d phases", len(r.Phases))
	}
	par, seq := r.Phases[0], r.Phases[1]
	if par.Name != "par" || par.Overlap != 0.5 {
		t.Errorf("par overlap = %v, want 0.5", par.Overlap)
	}
	if seq.Overlap != 0 {
		t.Errorf("seq overlap = %v, want 0", seq.Overlap)
	}
	if par.Wall != sim.Duration(10*time.Second) || seq.Wall != sim.Duration(20*time.Second) {
		t.Errorf("walls = %v, %v", par.Wall, seq.Wall)
	}
	// Equal busy times: the alphabetically first device wins the tie.
	if par.Bottleneck != "disk0" || par.BottleneckBusy != sim.Duration(10*time.Second) {
		t.Errorf("par bottleneck = %s (%v)", par.Bottleneck, par.BottleneckBusy)
	}
	// Total: 40s of device busy over a 30s union.
	if got := r.Total.Overlap; got != 0.25 {
		t.Errorf("total overlap = %v, want 0.25", got)
	}
	if r.Total.Wall != sim.Duration(30*time.Second) {
		t.Errorf("total wall = %v", r.Total.Wall)
	}
	if len(par.Busy) != 2 || par.Busy[0].Blocks != 80 || par.Busy[1].Blocks != 100 {
		t.Errorf("par busy = %+v", par.Busy)
	}
}

func TestAnalyzeRollsChildEventsUpToPhase(t *testing.T) {
	spans := []*Span{
		span(1, 0, "join-chunk", 0, secs(10)),
		span(2, 1, "bucket-pair", 0, secs(5)),        // child
		span(3, 2, "retry-backoff", 0, secs(1)),      // grandchild
		span(4, 0, "join-chunk", secs(10), secs(20)), // second instance merges
	}
	events := []Event{
		ev("disk0", DiskRead, 0, secs(4), 4, 3), // via grandchild
		ev("disk0", DiskRead, secs(12), secs(16), 4, 4),
		ev("disk0", DiskRead, secs(25), secs(26), 1, 0), // unattributed
		{Device: "-", Kind: Degrade, Start: secs(5), End: secs(5), Span: 1},
	}
	r := Analyze(spans, events, secs(30))
	if len(r.Phases) != 1 {
		t.Fatalf("phases = %+v", r.Phases)
	}
	p := r.Phases[0]
	if p.Name != "join-chunk" || p.Count != 2 {
		t.Errorf("phase = %s count %d", p.Name, p.Count)
	}
	if p.Wall != sim.Duration(20*time.Second) {
		t.Errorf("wall = %v", p.Wall)
	}
	// Both attributed reads (4s each) land in the phase; the
	// unattributed one only shows in TOTAL.
	if p.BottleneckBusy != sim.Duration(8*time.Second) || p.Busy[0].Blocks != 8 {
		t.Errorf("busy = %v blocks %d", p.BottleneckBusy, p.Busy[0].Blocks)
	}
	if r.Total.BottleneckBusy != sim.Duration(9*time.Second) {
		t.Errorf("total busy = %v", r.Total.BottleneckBusy)
	}
}
