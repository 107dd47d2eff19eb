package fault

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestOSRulesInvisibleToDecide(t *testing.T) {
	s := mustParse(t, "oserr=disk:5:3,torn=disk:5:3,oswait=disk:1s:3,flip=disk:5:3")
	for _, w := range []bool{false, true} {
		if d := s.Decide(Op{Device: "disk", Addr: 0, N: 10, Write: w}); d != (Decision{}) {
			t.Fatalf("Decide(write=%v) on a sim op fired an OS-level rule: %+v", w, d)
		}
	}
	// No firings spent: a file op still sees all of them.
	if d := s.Decide(Op{Device: "disk", Addr: 5, N: 1, OS: true}); d.OS.Err == nil {
		t.Fatal("a file op should fire the oserr rule")
	}
}

func TestDeviceRulesLeaveOSVerdictZero(t *testing.T) {
	s := mustParse(t, "corrupt=disk:5,stall=disk:1s")
	d := s.Decide(Op{Device: "disk", Addr: 5, N: 1, OS: true})
	if !d.Corrupt || !d.OS.Zero() {
		t.Fatalf("want a device-level corrupt verdict only, got %+v", d)
	}
	if d := s.Decide(Op{Device: "disk", Addr: 5, N: 1, OS: true}); d.Stall != time.Second || !d.OS.Zero() {
		t.Fatalf("want a device-level stall only, got %+v", d)
	}
}

func TestOSErrorMatchesReadsAndWrites(t *testing.T) {
	s := mustParse(t, "oserr=R:7:2")
	if d := s.Decide(Op{Device: "tape:R", Addr: 0, N: 10, Write: true, OS: true}); !errors.Is(d.OS.Err, ErrTransient) {
		t.Fatalf("write covering addr 7: want transient OS error, got %+v", d)
	}
	if d := s.Decide(Op{Device: "tape:R", Addr: 7, N: 1, OS: true}); !errors.Is(d.OS.Err, ErrTransient) {
		t.Fatalf("read at addr 7: want transient OS error, got %+v", d)
	}
	if d := s.Decide(Op{Device: "tape:R", Addr: 7, N: 1, OS: true}); !d.OS.Zero() {
		t.Fatalf("count spent, want clean decision, got %+v", d)
	}
}

func TestTornAndFlipMatchWritesOnly(t *testing.T) {
	s := mustParse(t, "torn=disk:3,flip=disk:4")
	for addr := int64(3); addr <= 4; addr++ {
		if d := s.Decide(Op{Device: "disk", Addr: addr, N: 1, OS: true}); !d.OS.Zero() {
			t.Fatalf("read at %d should not match write-only rules: %+v", addr, d)
		}
	}
	if d := s.Decide(Op{Device: "disk", Addr: 3, N: 1, Write: true, OS: true}); !d.OS.Torn {
		t.Fatalf("want torn write, got %+v", d)
	}
	if d := s.Decide(Op{Device: "disk", Addr: 4, N: 1, Write: true, OS: true}); !d.OS.Flip {
		t.Fatalf("want flipped store, got %+v", d)
	}
}

func TestWallStallAnyAddressAndTime(t *testing.T) {
	s := mustParse(t, "oswait=S:250ms:2")
	d := s.Decide(Op{Device: "tape:S", Addr: 999, N: 1, Now: sim.Time(time.Hour), OS: true})
	if d.OS.Stall != 250*time.Millisecond {
		t.Fatalf("want 250ms wall stall, got %+v", d)
	}
	if d := s.Decide(Op{Device: "tape:R", Addr: 0, N: 1, Write: true, OS: true}); !d.OS.Zero() {
		t.Fatalf("wrong device should not stall: %+v", d)
	}
	if d := s.Decide(Op{Device: "tape:S", Write: true, OS: true}); d.OS.Stall == 0 {
		t.Fatalf("second firing should stall writes too, got %+v", d)
	}
	if d := s.Decide(Op{Device: "tape:S", OS: true}); !d.OS.Zero() {
		t.Fatalf("count spent, got %+v", d)
	}
}

func TestNilInjectorHasNoOSVerdict(t *testing.T) {
	var c Counts
	if ef, err := c.Step(nil, nil, nil, Op{Device: "disk", OS: true}, "disk: file", "f"); ef != (Effect{}) || err != nil || c != (Counts{}) {
		t.Fatalf("nil injector: %+v, %v, %+v", ef, err, c)
	}
	if inj := Instrument(nil, obs.NewRegistry(), nil); inj != nil {
		t.Fatalf("instrumenting a nil schedule gave %T, want nil", inj)
	}
}

func TestInstrumentForwardsOSVerdict(t *testing.T) {
	s := mustParse(t, "oserr=disk:1")
	inj := Instrument(s, nil, nil) // nil registry: Instrument returns s unchanged
	if inj != Injector(s) {
		t.Fatal("nil registry should return the inner injector")
	}
	reg := obs.NewRegistry()
	wrapped := Instrument(mustParse(t, "oserr=disk:1"), reg, obs.NewFlightRecorder(16))
	if d := wrapped.Decide(Op{Device: "disk", Addr: 1, N: 1, OS: true}); !errors.Is(d.OS.Err, ErrTransient) {
		t.Fatalf("instrumented injector should forward the OS verdict, got %+v", d)
	}
	// The clean device verdict counts as ok; the OS verdict as os-error.
	text := reg.Exposition()
	for _, want := range []string{`outcome="ok"} 1`, `outcome="os-error"} 1`, `outcome="transient"} 0`} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %s:\n%s", want, text)
		}
	}
}
