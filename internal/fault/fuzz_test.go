package fault

import (
	"testing"
)

// FuzzParse throws arbitrary specs at the fault-schedule grammar. The
// properties are total robustness — Parse never panics, and a nil error
// implies a usable schedule — and a faithful String: the re-parsed
// rendering decides a fixed op sequence exactly as the original does. The parser fronts the cmd/tapejoin
// -faults flag, so every byte sequence a user can type must come back
// as either a schedule or an error.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"transient=R:100:2",
		"hard=S:42",
		"corrupt=disk:7:3",
		"stall=R:90s:2",
		"diskfail=1@40s",
		"drivefail=R@1h10m",
		"random=7:3",
		"transient=R:100:2,diskfail=1@40s,random=7:3",
		"stall=disk0:500ms",
		// OS-level directives for the file backend.
		"oserr=S:12:2",
		"torn=disk:5",
		"oswait=disk:200ms:3",
		"flip=disk0:9",
		"oserr=R:0,torn=R:0,oswait=R:1ns,flip=R:0",
		"transient=R:5,oswait=disk:2s:50,flip=disk:40,drivefail=S@30s",
		"oswait=disk:-1s",
		"torn=disk",
		"flip=:3",
		// Near-misses that must error cleanly, not crash.
		"transient=R",
		"transient=R:x:y",
		"diskfail=@",
		"drivefail=Q@-5s",
		"random=",
		"=",
		"unknown=1",
		"transient=R:9223372036854775807:2147483647",
		",,,",
		"stall=R:1ns:0,stall=R:1ns:0",
		pinSpec,
		"hard=disk:5,oserr=disk:5,oswait=disk:1ms",
		"diskfail=1@59m,drivefail=S@29m59s,random=3:5",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse(%q) returned both a schedule and error %v", spec, err)
			}
			return
		}
		if s == nil {
			t.Fatalf("Parse(%q) returned nil schedule and nil error", spec)
		}
		// Round-trip property: every accepted spec renders back into
		// the grammar, and the rendered form is a fixed point.
		rendered := s.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not re-parse: %v", spec, rendered, err)
		}
		if again := s2.String(); again != rendered {
			t.Fatalf("String not a fixed point for %q: %q -> %q", spec, rendered, again)
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round-trip of %q changed rule count: %d -> %d", spec, s.Len(), s2.Len())
		}
		for i, o := range pinOps {
			if a, b := formatVerdict(pinDecide(s, o)), formatVerdict(pinDecide(s2, o)); a != b {
				t.Fatalf("op %d %+v: %q decides %s, its rendering %q decides %s", i, o, spec, a, rendered, b)
			}
		}
	})
}
