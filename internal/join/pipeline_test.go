package join

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// pinCase is one pinned run: D sized so the method runs several chunks
// over the 96-block S at M=48, and the disk block whose transient first
// hits Step II rather than Step I.
type pinCase struct {
	name     string
	d        int64
	diskAddr int64
}

// scheduleFn builds the fault schedule of one pinned run; mid is the
// kernel instant halfway through the clean run's Step II.
type scheduleFn func(c pinCase, spec Spec, mid sim.Duration) *fault.Schedule

// pinScenarios are the fault schedules every case is run under: clean,
// a disk transient that outlasts one read's retry budget (1 + 4
// attempts), the same on the S tape, and the loss of disk 1 halfway
// through Step II. The transients make a consumer or producer fail
// recoverably mid-pipeline; the loss makes a unit restart, or a
// pipeline hand off to its tail, with R's disk copy gone.
var pinScenarios = []struct {
	name  string
	sched scheduleFn
}{
	{"clean", func(pinCase, Spec, sim.Duration) *fault.Schedule { return nil }},
	{"disk", func(c pinCase, _ Spec, _ sim.Duration) *fault.Schedule {
		return mustFaults("transient=disk:%d:7", c.diskAddr)
	}},
	{"tapeS", func(_ pinCase, spec Spec, _ sim.Duration) *fault.Schedule {
		return mustFaults("transient=S:%d:6", spec.S.Region.Start+40)
	}},
	{"diskloss", func(_ pinCase, _ Spec, mid sim.Duration) *fault.Schedule {
		return mustFaults("diskfail=1@%v", time.Duration(mid))
	}},
}

// pinResources builds the traced resources of one pinned run.
func pinResources(d int64, sched *fault.Schedule) (Resources, *obs.Tracker) {
	res := fastRes(48, d)
	res.Faults = sched
	res.Spans = obs.NewTracker()
	return res, res.Spans
}

// scheduleDigest renders one run's observable schedule: the pipeline's
// stats, the output digest, and digests of every trace event and every
// span (name, proc, start, end, attrs).
func scheduleDigest(resp, stepI sim.Duration, iters, rscans int, restarts, out int64, outHash uint64,
	runErr error, tr *obs.Tracker) string {

	sum := func(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }
	eh := sha256.New()
	for _, ev := range tr.Events() {
		fmt.Fprintf(eh, "%s|%v|%d|%d|%d|%d|%s\n", ev.Device, ev.Kind, ev.Start, ev.End, ev.Blocks, ev.Span, ev.Note)
	}
	sh := sha256.New()
	for _, sp := range tr.Spans() {
		fmt.Fprintf(sh, "%s|%s|%d|%d|%v\n", sp.Name, sp.Proc, sp.Start, sp.End, sp.Attrs)
	}
	errS := ""
	if runErr != nil {
		errS = runErr.Error()
	}
	return fmt.Sprintf("resp=%d stepI=%d iter=%d rscans=%d restarts=%d out=%d hash=%x events=%d:%s spans=%d:%s err=%q",
		resp, stepI, iters, rscans, restarts, out, outHash,
		len(tr.Events()), sum(eh), len(tr.Spans()), sum(sh), errS)
}

// pinMethod runs one method on a fresh session and digests it. A failed
// run reports its elapsed time as the response. It also returns the
// instant halfway through the run's Step II.
func pinMethod(t *testing.T, m Method, c pinCase, sched scheduleFn, mid sim.Duration) (string, sim.Duration, sim.Duration) {
	t.Helper()
	spec := testSpec(t)
	res, tr := pinResources(c.d, sched(c, spec, mid))
	s, err := NewSession(res)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := &CountSink{}
	var st Stats
	var runErr error
	s.Kernel().Spawn("join:"+m.Symbol(), func(p *sim.Proc) {
		t0 := p.Now()
		r, err := s.Exec(p, m, spec, sink, ExecOptions{})
		if err != nil {
			runErr = err
			st.Response = sim.Duration(p.Now() - t0)
			return
		}
		st = r.Stats
	})
	if err := s.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	return scheduleDigest(st.Response, st.StepI, st.Iterations, st.RScans, st.UnitRestarts,
		st.OutputTuples, sink.PairSum, runErr, tr), st.Response, st.StepI + (st.Response-st.StepI)/2
}

// pinShared runs a three-rider shared scan over staged copies of R —
// distinct R-scan buffers, one rider with an S filter — and digests
// it. The shared scan has no sequential tail, so a faulted pass fails.
// Its Step II is the pass itself, after the staging copies.
func pinShared(t *testing.T, c pinCase, sched scheduleFn, mid sim.Duration) (string, sim.Duration, sim.Duration) {
	t.Helper()
	spec := testSpec(t)
	res, tr := pinResources(c.d, sched(c, spec, mid))
	s, err := NewSession(res)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sinks := []*CountSink{{}, {}, {}}
	var st Stats
	var runErr error
	var t0 sim.Time
	s.Kernel().Spawn("shared", func(p *sim.Proc) {
		var qs []SharedQuery
		for i, sink := range sinks {
			f, _, err := s.StageR(p, spec.R, nil)
			if err != nil {
				runErr = err
				return
			}
			q := SharedQuery{R: spec.R, StagedR: f, Sink: sink, MrBlocks: int64(2 + i)}
			if i == 1 {
				q.FilterS = func(t block.Tuple) bool { return t.Key%2 == 0 }
			}
			qs = append(qs, q)
		}
		t0 = p.Now()
		out, err := s.ExecShared(p, spec.S, qs, 0)
		if err != nil {
			runErr = err
			st.Response = sim.Duration(p.Now() - t0)
			return
		}
		st = out.Stats
	})
	if err := s.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	var h uint64
	for _, sink := range sinks {
		h += sink.PairSum
	}
	return scheduleDigest(st.Response, st.StepI, st.Iterations, st.RScans, st.UnitRestarts,
		st.OutputTuples, h, runErr, tr), st.Response, sim.Duration(t0) + st.Response/2
}

// TestConcurrentPipelineSchedule pins the complete virtual schedule of
// every paper method, SYM-H and the shared scan — clean, with a
// recoverable fault on each side of the producer/consumer pipeline, and
// with a disk lost mid-Step II — so a change to the pipeline skeleton,
// the sequential chunk loops or their restarts that moves any event,
// span, stat or output pair by one tick fails here.
func TestConcurrentPipelineSchedule(t *testing.T) {
	want := map[string]string{
		"DT-NB/clean":        "resp=6927705298 stepI=1429222566 iter=3 rscans=4 restarts=0 out=170 hash=adb2688d2c525d92 events=42:21d393bc0021f7ec spans=10:d5355f07f01a4f95 err=\"\"",
		"DT-NB/disk":         "resp=44652532880 stepI=1429222566 iter=3 rscans=4 restarts=1 out=170 hash=adb2688d2c525d92 events=50:74b38ad7916d6a64 spans=18:8ebfb4b46fb6ecbf err=\"\"",
		"DT-NB/tapeS":        "resp=38927705298 stepI=1429222566 iter=3 rscans=4 restarts=1 out=170 hash=adb2688d2c525d92 events=48:60de5b895f044b2b spans=16:faf4ae1b4602a6b0 err=\"\"",
		"DT-NB/diskloss":     "resp=11492978016 stepI=1429222566 iter=3 rscans=5 restarts=1 out=170 hash=adb2688d2c525d92 events=35:f5806bb121353303 spans=13:2e679446f4e3c24a err=\"\"",
		"CDT-NB/MB/clean":    "resp=6035692766 stepI=1429222566 iter=5 rscans=6 restarts=0 out=170 hash=adb2688d2c525d92 events=68:a654c67b4c359cff spans=21:6d9107a5f27d262e err=\"\"",
		"CDT-NB/MB/disk":     "resp=45809347916 stepI=1429222566 iter=5 rscans=6 restarts=0 out=170 hash=adb2688d2c525d92 events=77:03116aa57eb0a52c spans=27:7584c3f42d2f20d4 err=\"\"",
		"CDT-NB/MB/tapeS":    "resp=39506112816 stepI=1429222566 iter=5 rscans=6 restarts=0 out=170 hash=adb2688d2c525d92 events=73:9c2cafe56b4f322c spans=23:93fee7d65b247f7c err=\"\"",
		"CDT-NB/MB/diskloss": "resp=11963385540 stepI=1429222566 iter=5 rscans=7 restarts=0 out=170 hash=adb2688d2c525d92 events=55:754d7ff9bcfb37da spans=23:0319cc321bccc3c1 err=\"\"",
		"CDT-NB/DB/clean":    "resp=9615341639 stepI=1429222566 iter=3 rscans=4 restarts=0 out=170 hash=adb2688d2c525d92 events=104:f560bc14e7e35d0d spans=13:13a0358b4e799297 err=\"\"",
		"CDT-NB/DB/disk":     "resp=48318188028 stepI=1429222566 iter=3 rscans=4 restarts=0 out=170 hash=adb2688d2c525d92 events=84:ce0611b976865eee spans=19:f3f3ca0a6471f56c err=\"\"",
		"CDT-NB/DB/tapeS":    "resp=41369742903 stepI=1429222566 iter=3 rscans=4 restarts=0 out=170 hash=adb2688d2c525d92 events=62:cf7035b8c0071c8e spans=16:5bac98d220782fdb err=\"\"",
		"CDT-NB/DB/diskloss": "resp=14471021886 stepI=1429222566 iter=3 rscans=5 restarts=0 out=170 hash=adb2688d2c525d92 events=66:be31b77c6711f1e0 spans=15:c09c1fd2a28161f7 err=\"\"",
		"DT-GH/clean":        "resp=11003366710 stepI=1429222564 iter=3 rscans=4 restarts=0 out=170 hash=adb2688d2c525d92 events=95:b963b282f2f81085 spans=10:4bd5ea4c587ca88b err=\"\"",
		"DT-GH/disk":         "resp=49334203690 stepI=1429222564 iter=3 rscans=4 restarts=1 out=170 hash=adb2688d2c525d92 events=114:0d52184a8cdbfccc spans=18:eb145bc852466bfe err=\"\"",
		"DT-GH/tapeS":        "resp=43003366710 stepI=1429222564 iter=3 rscans=4 restarts=1 out=170 hash=adb2688d2c525d92 events=101:1700adeee6dd3e8c spans=16:8189db40ed88c198 err=\"\"",
		"DT-GH/diskloss":     "resp=24441576695 stepI=1429222564 iter=10 rscans=12 restarts=1 out=170 hash=adb2688d2c525d92 events=113:c20e0dd0a4f3eabc spans=33:dc523ee37b9169b8 err=\"\"",
		"CDT-GH/clean":       "resp=8845335377 stepI=1429222564 iter=3 rscans=4 restarts=0 out=170 hash=adb2688d2c525d92 events=95:bd689892543cdbee spans=13:802fcd298318eac2 err=\"\"",
		"CDT-GH/disk":        "resp=50136216227 stepI=1429222564 iter=3 rscans=4 restarts=0 out=170 hash=adb2688d2c525d92 events=125:0b0702a51ee8ff49 spans=20:7c6edd8cc66e7dfd err=\"\"",
		"CDT-GH/tapeS":       "resp=41550946658 stepI=1429222564 iter=3 rscans=4 restarts=0 out=170 hash=adb2688d2c525d92 events=100:2395c551ae89de6e spans=17:7f927aced7d6f53c err=\"\"",
		"CDT-GH/diskloss":    "resp=22989156643 stepI=1429222564 iter=10 rscans=12 restarts=0 out=170 hash=adb2688d2c525d92 events=112:569b29a699be3b9e spans=34:57652551d2a2cf99 err=\"\"",
		"CTT-GH/clean":       "resp=11241771099 stepI=2544840113 iter=2 rscans=3 restarts=0 out=170 hash=adb2688d2c525d92 events=99:93b5830c25db3a56 spans=10:5009597cfbd4358f err=\"\"",
		"CTT-GH/disk":        "resp=54595485796 stepI=2544840113 iter=2 rscans=3 restarts=0 out=170 hash=adb2688d2c525d92 events=151:995547e00fccbe65 spans=18:3670bb120cefb331 err=\"\"",
		"CTT-GH/tapeS":       "resp=46103416851 stepI=2544840113 iter=2 rscans=3 restarts=0 out=170 hash=adb2688d2c525d92 events=114:7a6fb0d2c654d2ae spans=14:f481efe7bfcffa8b err=\"\"",
		"CTT-GH/diskloss":    "resp=23173561025 stepI=2544840113 iter=4 rscans=5 restarts=0 out=170 hash=adb2688d2c525d92 events=106:74674444fa441132 spans=18:362d938df9fb1f66 err=\"\"",
		"TT-GH/clean":        "resp=31345291371 stepI=26523614281 iter=4 rscans=2 restarts=0 out=170 hash=adb2688d2c525d92 events=216:08f0ae156d3cbe1a spans=21:2192d339ee90ef17 err=\"\"",
		"TT-GH/disk":         "resp=68867714560 stepI=64046037470 iter=4 rscans=3 restarts=1 out=170 hash=adb2688d2c525d92 events=237:34d612554c91045c spans=29:4915d1bff6f7bf05 err=\"\"",
		"TT-GH/tapeS":        "resp=64913316441 stepI=60091639351 iter=4 rscans=2 restarts=1 out=170 hash=adb2688d2c525d92 events=232:c1ca907b8bfae5f3 spans=27:7d06acf8695e2afb err=\"\"",
		"TT-GH/diskloss":     "resp=31345291371 stepI=26523614281 iter=4 rscans=2 restarts=0 out=170 hash=adb2688d2c525d92 events=216:08f0ae156d3cbe1a spans=21:2192d339ee90ef17 err=\"\"",
		"SYM-H/clean":        "resp=9936523383 stepI=6562479528 iter=5 rscans=1 restarts=0 out=170 hash=adb2688d2c525d92 events=217:3c0ed7d03d353205 spans=51:0cf3fbe683db6f44 err=\"\"",
		"SYM-H/disk":         "resp=45936523383 stepI=6562479528 iter=5 rscans=1 restarts=1 out=170 hash=adb2688d2c525d92 events=224:337aebb76c2fe6ac spans=58:d8289606baa0880c err=\"\"",
		"SYM-H/tapeS":        "resp=32876034440 stepI=0 iter=0 rscans=0 restarts=0 out=0 hash=0 events=77:055d3f22f889b3a4 spans=27:7ade83e11ba49850 err=\"SYM-H: join: retries exhausted after 5 attempts on tape:S: tape: drive \\\"S\\\": transient device error: injected transient read error at block 40\"",
		"SYM-H/diskloss":     "resp=8297702082 stepI=0 iter=0 rscans=0 restarts=0 out=0 hash=0 events=186:262535051284cf56 spans=46:fd2667305ed8051a err=\"SYM-H: join: SYM-H spill for partition 3 lost; stream already consumed\"",
		"shared/clean":       "resp=12960962234 stepI=0 iter=6 rscans=0 restarts=0 out=416 hash=328809337f8139b0 events=327:1d88902644e67061 spans=34:9a3bb66d5d85042a err=\"\"",
		"shared/disk":        "resp=31546824446 stepI=0 iter=0 rscans=0 restarts=0 out=0 hash=0 events=18:735cbdcb8d66d73b spans=13:805ea96996d6c08c err=\"shared-scan: join: retries exhausted after 5 attempts on disk:R#0: disk: file \\\"R#0\\\": transient device error: injected transient read error at block 3\"",
		"shared/tapeS":       "resp=32780836964 stepI=0 iter=0 rscans=0 restarts=0 out=0 hash=0 events=119:29c7631905a72fd5 spans=19:6b143772b72111f6 err=\"shared-scan: join: retries exhausted after 5 attempts on tape:S: tape: drive \\\"S\\\": transient device error: injected transient read error at block 40\"",
		"shared/diskloss":    "resp=7308495223 stepI=0 iter=0 rscans=0 restarts=0 out=0 hash=0 events=165:1555e09ad4161912 spans=21:4ec7e854e861af86 err=\"shared-scan: disk: drive disk1 lost\"",
	}
	for _, c := range []pinCase{
		{"DT-NB", 128, 3}, {"CDT-NB/MB", 128, 3}, {"CDT-NB/DB", 96, 3},
		{"DT-GH", 64, 3}, {"CDT-GH", 64, 3}, {"CTT-GH", 64, 28}, {"TT-GH", 64, 3},
		{"SYM-H", 128, 3}, {"shared", 128, 3},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var clean, mid sim.Duration
			var cleanGot string
			for _, sc := range pinScenarios {
				key := c.name + "/" + sc.name
				var got string
				var resp, half sim.Duration
				if c.name == "shared" {
					got, resp, half = pinShared(t, c, sc.sched, mid)
				} else {
					got, resp, half = pinMethod(t, mustMethod(t, c.name), c, sc.sched, mid)
				}
				if got != want[key] {
					t.Errorf("%s:\n got %s\nwant %s\n%q: %q,", key, got, want[key], key, got)
				}
				switch {
				case sc.name == "clean":
					clean, mid, cleanGot = resp, half, got
				case c.name == "TT-GH" && sc.name == "diskloss":
					// TT-GH's Step II reads both sides' buckets from tape,
					// so a disk lost there must change nothing.
					if got != cleanGot {
						t.Errorf("%s: a disk lost in a tape-only Step II moved the run", key)
					}
				case resp == clean:
					t.Errorf("%s: response %v equals the clean run's; the fault never hit the pipeline", key, resp)
				}
			}
		})
	}
}

// TestSpoolReaderStopsAfterFailedWrite fails a tape write in the middle
// of CTT-GH's Step I spool — the pipelined copy of a disk bucket onto
// R's tape — by losing R's drive, with recovery off. The spool's disk
// reader runs at most one batch ahead of the tape writes, and once a
// write has failed it must read no further: of the disk reads starting
// when the failed write is issued or later, only the batch the reader
// was already fetching may remain.
func TestSpoolReaderStopsAfterFailedWrite(t *testing.T) {
	run := func(sched *fault.Schedule) ([]obs.Event, error) {
		spec := specWithSizes(t, 96, 192, 4)
		res := fastRes(12, 200)
		res.IOChunk = 1 // one block per spool batch
		res.DisableRecovery = true
		res.Faults = sched
		tr := obs.NewTracker()
		res.Spans = tr
		s, err := NewSession(res)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var runErr error
		s.Kernel().Spawn("join", func(p *sim.Proc) {
			_, runErr = s.Exec(p, CTTGH{}, spec, &CountSink{}, ExecOptions{})
		})
		if err := s.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		s.Finish()
		return tr.Events(), runErr
	}
	clean, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var writes []sim.Time
	for _, ev := range clean {
		if ev.Device == "tape:R" && ev.Kind == obs.TapeWrite {
			writes = append(writes, ev.Start)
		}
	}
	if len(writes) < 3 {
		t.Fatalf("clean run spooled %d tape writes", len(writes))
	}
	// Up to the drive loss the faulted run is the clean run, so the
	// third spool write is issued at the same instant and fails.
	failAt := writes[2]
	events, err := run(mustFaults("drivefail=R@%dns", int64(failAt)))
	if err == nil {
		t.Fatal("spool survived the loss of its tape drive with recovery off")
	}
	var after int
	for _, ev := range events {
		if ev.Kind == obs.DiskRead && ev.Start >= failAt {
			after++
		}
	}
	if after > 1 {
		t.Errorf("the spool reader issued %d disk reads from the failed write on, want at most the one batch in hand", after)
	}
}
