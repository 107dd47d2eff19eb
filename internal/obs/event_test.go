package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func sampleEvents() []Event {
	return []Event{
		{Device: "tape:R", Kind: TapeRead, Start: 0, End: secs(40), Blocks: 40},
		{Device: "tape:R", Kind: TapeSeek, Start: secs(40), End: secs(50)},
		{Device: "disk0", Kind: DiskWrite, Start: secs(10), End: secs(30), Blocks: 20},
		{Device: "disk0", Kind: DiskRead, Start: secs(60), End: secs(100), Blocks: 40},
	}
}

// faultedEvents reproduces a recovery run's event shapes: a fault
// marker (instantaneous), a retry interval overlapping the re-read it
// issues, and an event running past the render window.
func faultedEvents() []Event {
	return []Event{
		{Device: "tape:R", Kind: TapeRead, Start: 0, End: secs(40), Blocks: 40},
		{Device: "tape:R", Kind: Fault, Start: secs(40), End: secs(40), Note: "transient"},
		{Device: "tape:R", Kind: Retry, Start: secs(40), End: secs(52)},
		{Device: "tape:R", Kind: TapeRead, Start: secs(48), End: secs(52), Blocks: 4},
		{Device: "disk0", Kind: DiskWrite, Start: secs(10), End: secs(30), Blocks: 20},
		{Device: "disk0", Kind: DiskRead, Start: secs(95), End: secs(110), Blocks: 15},
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var tr *Tracker
	tr.Record(nil, Event{Device: "x", Kind: TapeRead})
	if tr.Events() != nil {
		t.Fatal("nil tracker should have no events")
	}
	if Timeline(tr.Events(), secs(10), 10) != "" || DeviceSummary(tr.Events(), secs(10)) != "" {
		t.Fatal("no events render empty")
	}
}

// TestRecordStampsActiveSpan: Record attributes an event to the
// innermost span open on the issuing process, and keeps a span the
// caller captured itself.
func TestRecordStampsActiveSpan(t *testing.T) {
	tr := NewTracker()
	k := sim.NewKernel()
	k.Spawn("worker", func(p *sim.Proc) {
		tr.Record(p, Event{Device: "d", Kind: DiskRead})
		outer := tr.Begin(p, "outer")
		inner := tr.Begin(p, "inner")
		tr.Record(p, Event{Device: "d", Kind: DiskRead})
		tr.Record(p, Event{Device: "d", Kind: DiskRead, Span: outer.ID})
		inner.Close(p)
		outer.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, e := range tr.Events() {
		got = append(got, e.Span)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("event spans = %v, want [0 2 1]", got)
	}
}

func TestDevicesAndBusyTime(t *testing.T) {
	events := sampleEvents()
	devs := devices(events)
	if len(devs) != 2 || devs[0] != "disk0" || devs[1] != "tape:R" {
		t.Fatalf("devices = %v", devs)
	}
	if got := busyTime(events, "tape:R"); got != 50*time.Second {
		t.Fatalf("tape busy = %v, want 50s", got)
	}
	if got := busyTime(events, "disk0"); got != 60*time.Second {
		t.Fatalf("disk busy = %v, want 60s", got)
	}
}

func TestTimelineRendering(t *testing.T) {
	tl := Timeline(sampleEvents(), secs(100), 10)
	lines := strings.Split(strings.TrimRight(tl, "\n"), "\n")
	if len(lines) != 3 { // disk0, tape:R, axis
		t.Fatalf("timeline:\n%s", tl)
	}
	// disk0: write covers cells 1-2, read covers 6-9.
	disk := lines[0]
	if !strings.HasPrefix(disk, "disk0") {
		t.Fatalf("first row = %q", disk)
	}
	body := disk[strings.Index(disk, "|")+1 : strings.LastIndex(disk, "|")]
	if len(body) != 10 {
		t.Fatalf("row width = %d", len(body))
	}
	if body[0] != '.' || body[1] != 'w' || body[2] != 'w' || body[7] != 'r' || body[9] != 'r' {
		t.Fatalf("disk row = %q", body)
	}
	// tape:R: read covers cells 0-3, seek cell 4, idle after.
	tapeRow := lines[1]
	tBody := tapeRow[strings.Index(tapeRow, "|")+1 : strings.LastIndex(tapeRow, "|")]
	if tBody[0] != 'r' || tBody[3] != 'r' || tBody[4] != 's' || tBody[9] != '.' {
		t.Fatalf("tape row = %q", tBody)
	}
}

func TestTimelineCellDominance(t *testing.T) {
	// A cell containing 7s of read and 3s of write renders as read.
	tl := Timeline([]Event{
		{Device: "d", Kind: DiskRead, Start: 0, End: secs(7)},
		{Device: "d", Kind: DiskWrite, Start: secs(7), End: secs(10)},
	}, secs(10), 1)
	if !strings.Contains(tl, "|r|") {
		t.Fatalf("timeline = %q", tl)
	}
}

func TestSummary(t *testing.T) {
	sum := DeviceSummary(sampleEvents(), secs(100))
	if !strings.Contains(sum, "tape:R") || !strings.Contains(sum, "tape-read 40s") {
		t.Fatalf("summary:\n%s", sum)
	}
	if !strings.Contains(sum, "50.0%") { // tape busy 50 of 100
		t.Fatalf("summary lacks busy%%:\n%s", sum)
	}
	if !strings.Contains(sum, "disk-write 20s") {
		t.Fatalf("summary:\n%s", sum)
	}
}

func TestKindStringsAndGlyphs(t *testing.T) {
	for k, want := range map[Kind]string{
		TapeRead: "tape-read", TapeWrite: "tape-write", TapeSeek: "tape-seek",
		TapeExchange: "tape-exchange", DiskRead: "disk-read", DiskWrite: "disk-write",
	} {
		if k.String() != want {
			t.Errorf("%d -> %q, want %q", int(k), k.String(), want)
		}
	}
	if TapeExchange.glyph() != 'x' || TapeSeek.glyph() != 's' {
		t.Fatal("glyphs wrong")
	}
}

func TestEmptyTimelineEdgeCases(t *testing.T) {
	if Timeline(nil, secs(10), 10) != "" {
		t.Fatal("no events should render empty")
	}
	events := []Event{{Device: "d", Kind: DiskRead, Start: 0, End: secs(1)}}
	if Timeline(events, 0, 10) != "" || Timeline(events, secs(10), 0) != "" {
		t.Fatal("degenerate dimensions should render empty")
	}
}

func TestTimelineGolden(t *testing.T) {
	want := "" +
		"disk0  |..wwww.............r|\n" +
		"tape:R |rrrrrrrr~~~.........|\n" +
		"        0               1m40s\n"
	if got := Timeline(faultedEvents(), secs(100), 20); got != want {
		t.Fatalf("timeline:\n%swant:\n%s", got, want)
	}
}

func TestSummaryGolden(t *testing.T) {
	want := "" +
		"disk0    busy   35.0%  disk-read 15s  disk-write 20s\n" +
		"tape:R   busy   52.0%  tape-read 44s  fault 0s  retry 12s\n"
	if got := DeviceSummary(faultedEvents(), secs(100)); got != want {
		t.Fatalf("summary:\n%swant:\n%s", got, want)
	}
}

func TestBusyTimeMergesOverlap(t *testing.T) {
	// tape:R: read 0-40s, retry 40-52s, re-read 48-52s. Naive summing
	// gives 56s; the merged interval [0, 52] is the truth.
	if got := busyTime(faultedEvents(), "tape:R"); got.Seconds() != 52 {
		t.Fatalf("tape:R busy = %v, want 52s", got)
	}
	// Identical duplicated intervals collapse entirely.
	dup := []Event{
		{Device: "d", Kind: DiskRead, Start: 0, End: secs(10)},
		{Device: "d", Kind: DiskRead, Start: 0, End: secs(10)},
	}
	if got := busyTime(dup, "d"); got.Seconds() != 10 {
		t.Fatalf("duplicate busy = %v, want 10s", got)
	}
	// An interval containing another contributes only its own length.
	nested := []Event{
		{Device: "d", Kind: Retry, Start: 0, End: secs(20)},
		{Device: "d", Kind: DiskRead, Start: secs(5), End: secs(10)},
	}
	if got := busyTime(nested, "d"); got.Seconds() != 20 {
		t.Fatalf("nested busy = %v, want 20s", got)
	}
}

func TestTimelineInstantAndOverrun(t *testing.T) {
	// A zero-duration event renders a one-cell glyph, and its full-cell
	// weight beats partial occupants of the same cell.
	tl := Timeline([]Event{
		{Device: "d", Kind: DiskRead, Start: 0, End: secs(2)},
		{Device: "d", Kind: Fault, Start: secs(3), End: secs(3)},
	}, secs(10), 2) // cells of 5s: read covers 2s of cell 0
	if !strings.Contains(tl, "|!.|") {
		t.Fatalf("instant fault should win its cell:\n%s", tl)
	}
	// An event entirely past end clamps into the last cell instead of
	// being dropped.
	tl = Timeline([]Event{
		{Device: "d", Kind: DiskWrite, Start: 0, End: secs(1)},
		{Device: "d", Kind: DiskRead, Start: secs(12), End: secs(15)},
	}, secs(10), 2)
	if !strings.Contains(tl, "|wr|") {
		t.Fatalf("past-end event should clamp into last cell:\n%s", tl)
	}
}
