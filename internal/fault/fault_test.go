package fault

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// mustParse parses spec or fails the test.
func mustParse(t *testing.T, spec string) *Schedule {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTransientRecoversAfterCount(t *testing.T) {
	s := mustParse(t, "transient=R:100:2")
	op := Op{Device: "tape:R", Addr: 90, N: 20}
	for i := 0; i < 2; i++ {
		d := s.Decide(op)
		if d.Err == nil || !errors.Is(d.Err, ErrTransient) {
			t.Fatalf("attempt %d: want transient error, got %v", i, d.Err)
		}
	}
	if d := s.Decide(op); d.Err != nil {
		t.Fatalf("third attempt should succeed, got %v", d.Err)
	}
}

func TestRuleMatchingScope(t *testing.T) {
	s := mustParse(t, "transient=S:50")
	// Wrong device, non-overlapping window, and writes never match.
	for _, op := range []Op{
		{Device: "tape:R", Addr: 50, N: 1},
		{Device: "tape:S", Addr: 51, N: 10},
		{Device: "tape:S", Addr: 50, N: 1, Write: true},
	} {
		if d := s.Decide(op); d.Err != nil {
			t.Fatalf("op %+v should not match, got %v", op, d.Err)
		}
	}
	if d := s.Decide(Op{Device: "tape:S", Addr: 40, N: 20}); !errors.Is(d.Err, ErrTransient) {
		t.Fatalf("overlapping read should fail, got %v", d.Err)
	}
}

func TestHardErrorPersists(t *testing.T) {
	s := mustParse(t, "hard=R:7")
	for i := 0; i < 5; i++ {
		d := s.Decide(Op{Device: "tape:R", Addr: 0, N: 10})
		if !errors.Is(d.Err, ErrMedia) {
			t.Fatalf("attempt %d: want media error, got %v", i, d.Err)
		}
		if errors.Is(d.Err, ErrTransient) {
			t.Fatal("hard error must not be transient")
		}
	}
}

func TestDiskFailActivatesAtTime(t *testing.T) {
	at := sim.Time(time.Hour)
	s := mustParse(t, "diskfail=2@1h")
	if d := s.Decide(Op{Device: "disk2", Now: at - 1}); d.Err != nil {
		t.Fatalf("before activation: got %v", d.Err)
	}
	if d := s.Decide(Op{Device: "disk2", Now: at, Write: true}); !errors.Is(d.Err, ErrDeviceLost) {
		t.Fatalf("after activation (write): got %v", d.Err)
	}
	if d := s.Decide(Op{Device: "disk1", Now: at + 1}); d.Err != nil {
		t.Fatalf("other disk: got %v", d.Err)
	}
}

func TestCorruptAndStallDecisions(t *testing.T) {
	s := mustParse(t, "corrupt=disk:5,stall=S:3s")
	if d := s.Decide(Op{Device: "disk", Addr: 0, N: 10}); !d.Corrupt {
		t.Fatalf("want corrupt decision, got %+v", d)
	}
	if d := s.Decide(Op{Device: "disk", Addr: 0, N: 10}); d.Corrupt {
		t.Fatal("corrupt count should be spent")
	}
	if d := s.Decide(Op{Device: "tape:S", Addr: 0, N: 1}); d.Stall != 3*time.Second {
		t.Fatalf("want 3s stall, got %v", d.Stall)
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := mustParse(t, "transient=S:1000:2, hard=R:10, corrupt=disk:50, stall=R:5s:2, diskfail=1@30m, drivefail=S@1h")
	if s.Len() != 6 {
		t.Fatalf("want 6 rules, got %d", s.Len())
	}
	if d := s.Decide(Op{Device: "tape:S", Addr: 1000, N: 1}); !errors.Is(d.Err, ErrTransient) {
		t.Fatalf("transient directive: got %v", d.Err)
	}
	if d := s.Decide(Op{Device: "tape:S", Now: sim.Time(time.Hour)}); !errors.Is(d.Err, ErrDriveLost) {
		t.Fatalf("drivefail directive: got %v", d.Err)
	}
	if d := s.Decide(Op{Device: "disk1", Now: sim.Time(30 * time.Minute)}); !errors.Is(d.Err, ErrDeviceLost) {
		t.Fatalf("diskfail directive: got %v", d.Err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1", "transient=S", "transient=Q:5", "hard=R:x",
		"diskfail=1", "diskfail=x@5s", "stall=R:fast", "random=abc",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestRandomIsDeterministic(t *testing.T) {
	a := Random(42, 5, 4096)
	b := Random(42, 5, 4096)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must yield identical schedules")
	}
	c := Random(43, 5, 4096)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
	// Identical decision streams for identical op sequences.
	ops := []Op{
		{Device: "tape:R", Addr: 10, N: 100},
		{Device: "disk", Addr: 0, N: 500},
		{Device: "tape:S", Addr: 2000, N: 64},
	}
	a2 := Random(42, 5, 4096)
	for _, op := range ops {
		d1, d2 := a.Decide(op), a2.Decide(op)
		if errors.Is(d1.Err, ErrTransient) != errors.Is(d2.Err, ErrTransient) ||
			d1.Corrupt != d2.Corrupt || d1.Stall != d2.Stall {
			t.Fatalf("decision divergence on %+v: %+v vs %+v", op, d1, d2)
		}
	}
}

func TestNilScheduleIsInert(t *testing.T) {
	var s *Schedule
	if d := s.Decide(Op{Device: "tape:R", Addr: 0, N: 1}); d != (Decision{}) {
		t.Fatalf("nil schedule decided %+v", d)
	}
	if s.Len() != 0 {
		t.Fatal("nil schedule should be empty")
	}
}
