package fault

import (
	"reflect"
	"testing"
)

func TestStringRoundTrip(t *testing.T) {
	specs := []string{
		"transient=R:100:2",
		"hard=S:42",
		"corrupt=disk:7:3",
		"stall=R:1m30s:2",
		"diskfail=1@40s",
		"drivefail=R@1h10m0s",
		"oserr=S:12:2",
		"torn=disk:5",
		"oswait=disk:200ms:3",
		"flip=disk0:9",
		"transient=R:100:2,oserr=S:12,diskfail=1@40s,oswait=R:1s",
	}
	for _, spec := range specs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
	}
}

func TestStringCanonicalizes(t *testing.T) {
	// Non-canonical inputs (count 1 spelled out, "90s" for 1m30s)
	// converge to the canonical form, and that form is a fixed point.
	for in, want := range map[string]string{
		"transient=R:100:1":  "transient=R:100",
		"stall=S:90s:1":      "stall=S:1m30s",
		"oswait=disk:1500ms": "oswait=disk:1.5s",
		"drivefail=S@90m":    "drivefail=S@1h30m0s",
	} {
		s, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := s.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", in, got, want)
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s.String(), err)
		}
		if got := again.String(); got != want {
			t.Errorf("canonical form not a fixed point: %q -> %q", want, got)
		}
	}
}

func TestStringExpandsRandom(t *testing.T) {
	s, err := Parse("random=7:3")
	if err != nil {
		t.Fatal(err)
	}
	spec := s.String()
	if spec == "" {
		t.Fatal("random schedule rendered empty")
	}
	replay, err := Parse(spec)
	if err != nil {
		t.Fatalf("replaying %q: %v", spec, err)
	}
	if got := replay.String(); got != spec {
		t.Errorf("replayed schedule diverged: %q vs %q", got, spec)
	}
	if replay.Len() != s.Len() {
		t.Errorf("replay has %d rules, want %d", replay.Len(), s.Len())
	}
}

func TestStringSkipsSpentRules(t *testing.T) {
	s, err := Parse("transient=R:5,corrupt=S:9:2")
	if err != nil {
		t.Fatal(err)
	}
	s.Decide(Op{Device: "tape:R", Addr: 5, N: 1}) // spend the transient
	if got, want := s.String(), "corrupt=S:9:2"; got != want {
		t.Errorf("after spending: %q, want %q", got, want)
	}
}

func TestStringProgrammaticBuilders(t *testing.T) {
	s := Random(7, 3, 20)
	replay, err := Parse(s.String())
	if err != nil {
		t.Fatalf("replaying %q: %v", s.String(), err)
	}
	if !reflect.DeepEqual(s, replay) {
		t.Errorf("Random(7, 3, 20) = %q does not round-trip", s.String())
	}
}
