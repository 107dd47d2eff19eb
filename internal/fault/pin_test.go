package fault

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// pinSpec holds all ten directive kinds, with device and OS rules
// overlapping on disk block 5 and on tape:R block 7.
const pinSpec = "transient=disk:5:2,hard=R:7,corrupt=disk:5,stall=disk:3s:2," +
	"diskfail=1@1h,drivefail=S@30m,oserr=disk:5:2,oserr=R:7,torn=disk:5," +
	"oswait=disk:20ms:2,oswait=S:1ms,flip=disk:5:2"

// pinOp is one device operation of the pinned sequence. A file op is
// one the file backend would issue: it may draw an OS-level verdict.
type pinOp struct {
	file  bool
	dev   string
	write bool
	addr  int64
	n     int64
	now   time.Duration
}

// pinDecide makes the one decision a device makes for op.
func pinDecide(s *Schedule, o pinOp) (Decision, OSDecision) {
	d := s.Decide(Op{Device: o.dev, Write: o.write, Addr: o.addr, N: o.n, Now: sim.Time(o.now), OS: o.file})
	return d, d.OS
}

func formatVerdict(d Decision, od OSDecision) string {
	return fmt.Sprintf("dev{err=%v corrupt=%v stall=%v} os{err=%v torn=%v flip=%v stall=%v}",
		d.Err, d.Corrupt, time.Duration(d.Stall), od.Err, od.Torn, od.Flip, od.Stall)
}

// pinOps drives the schedule through sim and file ops, reads and
// writes, before and after each loss activates.
var pinOps = []pinOp{
	{false, "disk", false, 0, 10, 0},                  // sim read over 5: transient
	{true, "disk", false, 5, 1, 0},                    // transient Err: OS rules stay unspent
	{true, "disk", false, 5, 1, 0},                    // corrupt, and oserr
	{true, "disk", true, 5, 1, 0},                     // write: no device rule; oserr
	{true, "disk", true, 5, 1, 0},                     // torn
	{true, "disk", true, 4, 2, 0},                     // oswait before flip
	{true, "disk", false, 0, 1, 0},                    // stall, and oswait (any op)
	{true, "disk", true, 5, 1, 0},                     // flip
	{false, "disk", false, 5, 1, 0},                   // stall; sim op spends no OS rule
	{false, "tape:R", false, 7, 1, 0},                 // hard
	{true, "tape:R", false, 0, 10, 0},                 // hard Err: oserr=R stays unspent
	{true, "tape:R", true, 7, 1, 0},                   // hard skips writes; oserr=R fires
	{true, "tape:S", false, 0, 1, 29 * time.Minute},   // before drivefail: oswait=S
	{true, "tape:S", true, 0, 1, 30 * time.Minute},    // drive lost on a write
	{false, "disk1", true, 0, 1, 59 * time.Minute},    // before diskfail
	{true, "disk1", false, 0, 1, time.Hour},           // disk lost
	{true, "disk", true, 5, 1, 2 * time.Hour},         // last flip
	{true, "disk", false, 5, 1, 2 * time.Hour},        // nothing left at 5
	{false, "tape:S", false, 0, 1, 30 * time.Minute},  // loss persists
	{true, "disk1", true, 0, 1, 2 * time.Hour},        // loss persists
	{true, "tape:R", false, 7, 1, 2 * time.Hour},      // hard persists
	{true, "disk", false, 0, 1, 2 * time.Hour},        // clean
	{false, "disk0", false, 0, 1, 2 * time.Hour},      // clean
	{true, "tape:R", true, 0, 1, 2 * time.Hour},       // clean
	{false, "tape:S", true, 0, 1, 29 * time.Minute},   // before loss: clean
	{true, "tape:S", false, 0, 1, 29*time.Minute + 1}, // before loss: clean
}

// TestVerdictSequencePinned pins both levels' verdicts and the
// remaining schedule after every op of a fixed sequence.
func TestVerdictSequencePinned(t *testing.T) {
	want := []string{
		"dev{err=transient device error: injected transient read error at block 5 corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | transient=disk:5,hard=R:7,corrupt=disk:5,stall=disk:3s:2,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=disk:5:2,oserr=R:7,torn=disk:5,oswait=disk:20ms:2,oswait=S:1ms,flip=disk:5:2",
		"dev{err=transient device error: injected transient read error at block 5 corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,corrupt=disk:5,stall=disk:3s:2,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=disk:5:2,oserr=R:7,torn=disk:5,oswait=disk:20ms:2,oswait=S:1ms,flip=disk:5:2",
		"dev{err=<nil> corrupt=true stall=0s} os{err=transient device error: injected OS I/O error at block 5 torn=false flip=false stall=0s} | hard=R:7,stall=disk:3s:2,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=disk:5,oserr=R:7,torn=disk:5,oswait=disk:20ms:2,oswait=S:1ms,flip=disk:5:2",
		"dev{err=<nil> corrupt=false stall=0s} os{err=transient device error: injected OS I/O error at block 5 torn=false flip=false stall=0s} | hard=R:7,stall=disk:3s:2,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=R:7,torn=disk:5,oswait=disk:20ms:2,oswait=S:1ms,flip=disk:5:2",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=true flip=false stall=0s} | hard=R:7,stall=disk:3s:2,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=R:7,oswait=disk:20ms:2,oswait=S:1ms,flip=disk:5:2",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=20ms} | hard=R:7,stall=disk:3s:2,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=R:7,oswait=disk:20ms,oswait=S:1ms,flip=disk:5:2",
		"dev{err=<nil> corrupt=false stall=3s} os{err=<nil> torn=false flip=false stall=20ms} | hard=R:7,stall=disk:3s,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=R:7,oswait=S:1ms,flip=disk:5:2",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=true stall=0s} | hard=R:7,stall=disk:3s,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=R:7,oswait=S:1ms,flip=disk:5",
		"dev{err=<nil> corrupt=false stall=3s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=R:7,oswait=S:1ms,flip=disk:5",
		"dev{err=unrecoverable media error: injected hard media error at block 7 corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=R:7,oswait=S:1ms,flip=disk:5",
		"dev{err=unrecoverable media error: injected hard media error at block 7 corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s,oserr=R:7,oswait=S:1ms,flip=disk:5",
		"dev{err=<nil> corrupt=false stall=0s} os{err=transient device error: injected OS I/O error at block 7 torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s,oswait=S:1ms,flip=disk:5",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=1ms} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s,flip=disk:5",
		"dev{err=tape drive lost corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s,flip=disk:5",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s,flip=disk:5",
		"dev{err=device lost corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s,flip=disk:5",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=true stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=tape drive lost corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=device lost corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=unrecoverable media error: injected hard media error at block 7 corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
		"dev{err=<nil> corrupt=false stall=0s} os{err=<nil> torn=false flip=false stall=0s} | hard=R:7,diskfail=1@1h0m0s,drivefail=S@30m0s",
	}
	s, err := Parse(pinSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(pinOps) {
		t.Fatalf("%d expectations for %d ops", len(want), len(pinOps))
	}
	for i, o := range pinOps {
		got := formatVerdict(pinDecide(s, o)) + " | " + s.String()
		if got != want[i] {
			t.Errorf("op %d %+v:\n got %q\nwant %q", i, o, got, want[i])
		}
	}
}
