package join

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/sim"
)

// stepICase is one pinned Grace Hash run: a method, a key distribution,
// the skew-aware switch, and whether a disk dies during Step I. A late
// loss kills the disk instead at a fraction stepII of Step II, where a
// disk row re-stages R, or in TT-GH's S pass (sPass).
type stepICase struct {
	sym      string
	theta    float64
	skew     bool
	diskLoss bool
	filters  bool
	stepII   float64
	sPass    bool
}

func (c stepICase) name() string {
	keys := "uniform"
	if c.theta > 0 {
		keys = "zipf99"
	}
	n := fmt.Sprintf("%s/%s/skew=%v", c.sym, keys, c.skew)
	if c.diskLoss {
		n += "/diskloss"
	}
	if c.filters {
		n += "/filters"
	}
	if c.stepII > 0 {
		n += fmt.Sprintf("/diskloss@stepII=%.0f%%", 100*c.stepII)
	}
	if c.sPass {
		n += "/diskloss@S-pass"
	}
	return n
}

// stepIDisk sizes D per method: the disk–tape methods hold R's buckets
// on disk, the tape–tape ones get a small assembly area so Step I runs
// several bucket windows.
func stepIDisk(sym string) int64 {
	switch sym {
	case "DT-GH", "CDT-GH":
		return 256
	case "TT-GH":
		return 192
	}
	return 96
}

// stepIRun is one traced run of a pinned case.
type stepIRun struct {
	st      Stats
	keySum  uint64
	pairSum uint64
	err     error
	tr      *obs.Tracker
}

func runStepI(t *testing.T, c stepICase, sched *fault.Schedule) stepIRun {
	t.Helper()
	spec := specZipf(t, 64, 256, c.theta)
	if c.filters {
		spec.FilterR = func(t block.Tuple) bool { return t.Key%4 != 3 }
		spec.FilterS = func(t block.Tuple) bool { return t.Key%4 != 3 }
	}
	res := fastRes(12, stepIDisk(c.sym))
	res.SkewAware = c.skew
	res.Faults = sched
	res.Spans = obs.NewTracker()
	sink := &CountSink{}
	out, err := Run(mustMethod(t, c.sym), spec, res, sink)
	r := stepIRun{err: err, tr: res.Spans, keySum: sink.KeySum, pairSum: sink.PairSum}
	if out != nil {
		r.st = out.Stats
	}
	return r
}

// fingerprint renders everything Step I decides: timing, scan and
// iteration counts, device traffic, memory and disk peaks, the skew
// plan's size, restarts, the output, and digests of every trace event
// and span — disk placement, and so file creation order, shows up in
// the per-drive events, file names in fault notes.
func (r stepIRun) fingerprint() string {
	st := r.st
	eh := sha256.New()
	for _, ev := range r.tr.Events() {
		fmt.Fprintf(eh, "%s|%v|%d|%d|%d|%d|%s\n", ev.Device, ev.Kind, ev.Start, ev.End, ev.Blocks, ev.Span, ev.Note)
	}
	sh := sha256.New()
	for _, sp := range r.tr.Spans() {
		fmt.Fprintf(sh, "%s|%s|%d|%d|%v\n", sp.Name, sp.Proc, sp.Start, sp.End, sp.Attrs)
	}
	errS := ""
	if r.err != nil {
		errS = r.err.Error()
	}
	return fmt.Sprintf("resp=%d stepI=%d rscans=%d iter=%d tape=%d/%d disk=%d/%d seeks=%d mem=%d dhw=%d heavy=%d parts=%d restarts=%d out=%d/%x/%x events=%d:%x spans=%d:%x err=%q",
		st.Response, st.StepI, st.RScans, st.Iterations,
		st.TapeBlocksRead, st.TapeBlocksWritten, st.DiskBlocksRead, st.DiskBlocksWritten, st.TapeSeeks,
		st.MemHighWater, st.DiskHighWater, st.HeavyHitters, st.SkewPartitions, st.UnitRestarts,
		st.OutputTuples, r.keySum, r.pairSum,
		len(r.tr.Events()), eh.Sum(nil)[:8], len(r.tr.Spans()), sh.Sum(nil)[:8], errS)
}

// stepIBuckets is the uniform plan's bucket count B for a case.
func stepIBuckets(t *testing.T, c stepICase) int {
	t.Helper()
	spec := specZipf(t, 64, 256, c.theta)
	res := fastRes(12, stepIDisk(c.sym))
	var plan hashutil.Plan
	var err error
	switch c.sym {
	case "CTT-GH":
		plan, err = planTapeTape(spec.R.Region.N, spec.S.Region.N, res)
	case "TT-GH":
		plan, err = planTT(spec.R.Region.N, spec.S.Region.N, res)
	default:
		plan, err = ghPlan(spec.R.Region.N, spec.S.Region.N, res)
	}
	if err != nil {
		t.Fatal(err)
	}
	return plan.B
}

// diskLossTime picks when disk 1 dies, from the clean run's own trace.
// The disk–tape methods lose it halfway through Step I. The tape–tape
// methods lose it just after the first bucket spooled from a window of
// two or more, so the window restarts with some buckets already on
// tape.
func diskLossTime(t *testing.T, sym string, clean stepIRun) sim.Time {
	t.Helper()
	if sym == "DT-GH" || sym == "CDT-GH" {
		return sim.Time(clean.st.StepI / 2)
	}
	spans := clean.tr.Spans()
	for _, w := range spans {
		if w.Name != "hash-window" {
			continue
		}
		var spooled []*obs.Span
		for _, sp := range spans {
			if sp.Name == "spool-bucket" && sp.Start >= w.Start && sp.End <= w.End {
				spooled = append(spooled, sp)
			}
		}
		if len(spooled) >= 2 {
			return spooled[0].End + 1
		}
	}
	t.Fatalf("%s: no Step I window spooled two buckets", sym)
	return 0
}

// lateLossTime picks when disk 1 dies in a late-loss case, from the
// clean run's own trace: at the case's fraction of Step II, or just
// after the first bucket spooled from the last window of two or more in
// TT-GH's S pass, whose windows start over at lo = 0 after R's. On
// Zipf keys that window holds R's refined bucket.
func lateLossTime(t *testing.T, c stepICase, clean stepIRun) sim.Time {
	t.Helper()
	if c.stepII > 0 {
		return sim.Time(clean.st.StepI + sim.Duration(c.stepII*float64(clean.st.Response-clean.st.StepI)))
	}
	spans := clean.tr.Spans()
	passes := 0
	var last []*obs.Span
	for _, w := range spans {
		if w.Name != "hash-window" {
			continue
		}
		if len(w.Attrs) > 0 && w.Attrs[0] == obs.AInt("lo", 0) {
			passes++
		}
		if passes < 2 {
			continue
		}
		var spooled []*obs.Span
		for _, sp := range spans {
			if sp.Name == "spool-bucket" && sp.Start >= w.Start && sp.End <= w.End {
				spooled = append(spooled, sp)
			}
		}
		if len(spooled) >= 2 {
			last = spooled
		}
	}
	if last == nil {
		t.Fatalf("%s: no S-pass window spooled two buckets", c.name())
	}
	return last[0].End + 1
}

// restartedAfterSpool reports whether a hash-window restart hit an
// attempt that had already spooled at least one bucket to tape.
func restartedAfterSpool(tr *obs.Tracker) bool {
	spans := tr.Spans()
	for _, ev := range tr.Events() {
		if ev.Kind != obs.Retry || !strings.HasPrefix(ev.Note, "restart hash-window@") {
			continue
		}
		var attempt *obs.Span
		for _, sp := range spans {
			if sp.Name == "hash-window" && sp.Start <= ev.Start && (attempt == nil || sp.Start > attempt.Start) {
				attempt = sp
			}
		}
		for _, sp := range spans {
			if attempt != nil && sp.Name == "spool-bucket" && sp.Start >= attempt.Start && sp.End <= ev.Start {
				return true
			}
		}
	}
	return false
}

// TestStepIPartitionPin pins Step I of the four Grace Hash methods —
// the R (and for TT-GH, S) partition pass, the skew repair and the
// tape–tape bucket windows — on uniform and Zipf 0.99 keys, with skew
// awareness off and on, clean and with a disk lost mid Step I, plus one
// pushed-down-filter case per method. Late losses pin the paths that
// reuse R's partition map: DT-GH and CDT-GH re-staging R's refined
// buckets from Step II, and TT-GH's S pass restarting a window. Any
// change to file order, buffer sizing, routing or retry behaviour moves
// the wanted strings.
func TestStepIPartitionPin(t *testing.T) {
	want := map[string]string{
		"DT-GH/uniform/skew=false":                    "resp=49574616666 stepI=6341282006 rscans=3 iter=2 tape=320/0 disk=397/330 seeks=0 mem=12 dhw=251 heavy=0 parts=0 restarts=0 out=69/2371d/42da7699e15b9765 events=945:f8be14ff5408321a spans=35:6d2ce40936c3273f err=\"\"",
		"DT-GH/uniform/skew=false/diskloss":           "resp=64569635354 stepI=9679325826 rscans=6 iter=5 tape=357/0 disk=606/371 seeks=0 mem=12 dhw=123 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=1041:a1ac02faf706515d spans=87:9278e5e51af2690a err=\"\"",
		"DT-GH/uniform/skew=true":                     "resp=49574616666 stepI=6341282006 rscans=3 iter=2 tape=320/0 disk=397/330 seeks=0 mem=12 dhw=251 heavy=0 parts=0 restarts=0 out=69/2371d/42da7699e15b9765 events=945:f8be14ff5408321a spans=35:6d2ce40936c3273f err=\"\"",
		"DT-GH/uniform/skew=true/diskloss":            "resp=64569635354 stepI=9679325826 rscans=6 iter=5 tape=357/0 disk=606/371 seeks=0 mem=12 dhw=123 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=1041:a1ac02faf706515d spans=87:9278e5e51af2690a err=\"\"",
		"DT-GH/zipf99/skew=false":                     "resp=52506647962 stepI=6341282006 rscans=3 iter=2 tape=320/0 disk=450/329 seeks=0 mem=12 dhw=252 heavy=0 parts=0 restarts=0 out=5492/5931/3867e82836a6c318 events=1001:799ecdd7bcddc489 spans=35:fd1ca8397c3596de err=\"\"",
		"DT-GH/zipf99/skew=false/diskloss":            "resp=67727268527 stepI=9543723948 rscans=6 iter=5 tape=355/0 disk=662/370 seeks=0 mem=12 dhw=123 heavy=0 parts=0 restarts=1 out=5492/5931/3867e82836a6c318 events=1099:019fcf4b93eea701 spans=87:98339542b7277281 err=\"\"",
		"DT-GH/zipf99/skew=true":                      "resp=50682629188 stepI=7606097036 rscans=3 iter=2 tape=320/0 disk=412/345 seeks=0 mem=10 dhw=251 heavy=1 parts=9 restarts=0 out=5492/5931/3867e82836a6c318 events=967:0645d02fad73cc0f spans=40:464c4a328b0b6c58 err=\"\"",
		"DT-GH/zipf99/skew=true/diskloss":             "resp=67063265409 stepI=11739752130 rscans=6 iter=5 tape=362/0 disk=625/395 seeks=0 mem=10 dhw=123 heavy=1 parts=9 restarts=1 out=5492/5931/3867e82836a6c318 events=1080:003e5ee99fdba284 spans=98:daa5eadb78868225 err=\"\"",
		"DT-GH/zipf99/skew=true/filters":              "resp=43580149677 stepI=6880488897 rscans=3 iter=2 tape=320/0 disk=337/280 seeks=0 mem=10 dhw=209 heavy=1 parts=9 restarts=0 out=5174/4ab3/f4da6db750655f3a events=849:2787ad4d03fa7580 spans=40:b6c10e7c55f29c98 err=\"\"",
		"CDT-GH/uniform/skew=false":                   "resp=43177337789 stepI=6341282006 rscans=3 iter=2 tape=320/0 disk=397/330 seeks=0 mem=21 dhw=256 heavy=0 parts=0 restarts=0 out=69/2371d/42da7699e15b9765 events=945:08f754bcceeaa783 spans=23:c234366247cb19b7 err=\"\"",
		"CDT-GH/uniform/skew=false/diskloss":          "resp=56611908276 stepI=9679325826 rscans=6 iter=5 tape=357/0 disk=606/371 seeks=0 mem=21 dhw=128 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=1041:9cbbe54de040ac57 spans=57:ab87bc76d7c87534 err=\"\"",
		"CDT-GH/uniform/skew=true":                    "resp=43177337789 stepI=6341282006 rscans=3 iter=2 tape=320/0 disk=397/330 seeks=0 mem=21 dhw=256 heavy=0 parts=0 restarts=0 out=69/2371d/42da7699e15b9765 events=945:08f754bcceeaa783 spans=23:c234366247cb19b7 err=\"\"",
		"CDT-GH/uniform/skew=true/diskloss":           "resp=56611908276 stepI=9679325826 rscans=6 iter=5 tape=357/0 disk=606/371 seeks=0 mem=21 dhw=128 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=1041:9cbbe54de040ac57 spans=57:ab87bc76d7c87534 err=\"\"",
		"CDT-GH/zipf99/skew=false":                    "resp=46323372216 stepI=6341282006 rscans=3 iter=2 tape=320/0 disk=450/329 seeks=0 mem=18 dhw=256 heavy=0 parts=0 restarts=0 out=5492/5931/3867e82836a6c318 events=1001:82988e7fd2a3cdcc spans=23:3433ad12b3948fe5 err=\"\"",
		"CDT-GH/zipf99/skew=false/diskloss":           "resp=59887143327 stepI=9543723948 rscans=6 iter=5 tape=355/0 disk=662/370 seeks=0 mem=21 dhw=128 heavy=0 parts=0 restarts=1 out=5492/5931/3867e82836a6c318 events=1099:4c2c9b71e08c72a6 spans=57:7abaf53caa09f40d err=\"\"",
		"CDT-GH/zipf99/skew=true":                     "resp=44430554068 stepI=7606097036 rscans=3 iter=2 tape=320/0 disk=412/345 seeks=0 mem=19 dhw=256 heavy=1 parts=9 restarts=0 out=5492/5931/3867e82836a6c318 events=967:7617f11f708eee6f spans=26:48a6194d7c61aa1a err=\"\"",
		"CDT-GH/zipf99/skew=true/diskloss":            "resp=59066337705 stepI=11739752130 rscans=6 iter=5 tape=362/0 disk=625/395 seeks=0 mem=20 dhw=128 heavy=1 parts=9 restarts=1 out=5492/5931/3867e82836a6c318 events=1080:6dc727925e22de93 spans=63:39ac9a8e704e405d err=\"\"",
		"CDT-GH/zipf99/skew=true/filters":             "resp=38459284572 stepI=6880488897 rscans=3 iter=2 tape=320/0 disk=337/280 seeks=0 mem=19 dhw=217 heavy=1 parts=9 restarts=0 out=5174/4ab3/f4da6db750655f3a events=849:379c76a393402be8 spans=26:d6717e5bcfe05a46 err=\"\"",
		"CTT-GH/uniform/skew=false":                   "resp=45382585461 stepI=10287742799 rscans=4 iter=3 tape=521/67 disk=332/332 seeks=0 mem=21 dhw=96 heavy=0 parts=0 restarts=0 out=69/2371d/42da7699e15b9765 events=977:44e4ca6d6718f74e spans=42:f251210257c7862c err=\"\"",
		"CTT-GH/uniform/skew=false/diskloss":          "resp=62726823497 stepI=20091482427 rscans=10 iter=7 tape=917/75 disk=352/402 seeks=0 mem=21 dhw=67 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=1215:61e4d2ea7b937231 spans=89:eb6cd2d0b22aa28a err=\"\"",
		"CTT-GH/uniform/skew=true":                    "resp=45382585461 stepI=10287742799 rscans=4 iter=3 tape=521/67 disk=332/332 seeks=0 mem=21 dhw=96 heavy=0 parts=0 restarts=0 out=69/2371d/42da7699e15b9765 events=977:44e4ca6d6718f74e spans=42:f251210257c7862c err=\"\"",
		"CTT-GH/uniform/skew=true/diskloss":           "resp=62726823497 stepI=20091482427 rscans=10 iter=7 tape=917/75 disk=352/402 seeks=0 mem=21 dhw=67 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=1215:61e4d2ea7b937231 spans=89:eb6cd2d0b22aa28a err=\"\"",
		"CTT-GH/zipf99/skew=false":                    "resp=48365416133 stepI=10287742802 rscans=4 iter=3 tape=521/67 disk=391/335 seeks=0 mem=21 dhw=96 heavy=0 parts=0 restarts=0 out=5492/5931/3867e82836a6c318 events=1033:6077a582216ff4f0 spans=42:2a544ca2e4bcd4d1 err=\"\"",
		"CTT-GH/zipf99/skew=false/diskloss":           "resp=66187666723 stepI=19063868020 rscans=10 iter=7 tape=917/67 disk=403/396 seeks=0 mem=21 dhw=67 heavy=0 parts=0 restarts=1 out=5492/5931/3867e82836a6c318 events=1265:79160395ca9d0e77 spans=89:1fd7c602b97e1450 err=\"\"",
		"CTT-GH/zipf99/skew=true":                     "resp=45545789232 stepI=10537745936 rscans=4 iter=3 tape=521/67 disk=350/334 seeks=0 mem=20 dhw=96 heavy=1 parts=9 restarts=0 out=5492/5931/3867e82836a6c318 events=981:c95fbe8cfef2e960 spans=46:7dd46f24ae50b097 err=\"\"",
		"CTT-GH/zipf99/skew=true/diskloss":            "resp=62604024141 stepI=19766278675 rscans=10 iter=7 tape=917/67 disk=365/400 seeks=0 mem=20 dhw=67 heavy=1 parts=9 restarts=1 out=5492/5931/3867e82836a6c318 events=1219:52f688c95509bed3 spans=97:1aef60143945d547 err=\"\"",
		"CTT-GH/zipf99/skew=true/filters":             "resp=38782109065 stepI=9380930900 rscans=4 iter=3 tape=491/57 disk=282/268 seeks=0 mem=19 dhw=80 heavy=1 parts=9 restarts=0 out=5174/4ab3/f4da6db750655f3a events=859:aa1c86689a16dc99 spans=46:434caab935d54292 err=\"\"",
		"TT-GH/uniform/skew=false":                    "resp=73903873375 stepI=61202870497 rscans=2 iter=8 tape=900/324 disk=324/324 seeks=0 mem=12 dhw=154 heavy=0 parts=0 restarts=0 out=69/2371d/42da7699e15b9765 events=1307:21e99d0295c3b310 spans=35:18dbdf81017e13a0 err=\"\"",
		"TT-GH/uniform/skew=false/diskloss":           "resp=146467815328 stepI=133766812450 rscans=3 iter=8 tape=2500/332 disk=332/382 seeks=0 mem=12 dhw=67 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=2927:c2dd291c6904c6b4 spans=43:df851ce4b8a8e0f5 err=\"\"",
		"TT-GH/uniform/skew=true":                     "resp=73903873375 stepI=61202870497 rscans=2 iter=8 tape=900/324 disk=324/324 seeks=0 mem=12 dhw=154 heavy=0 parts=0 restarts=0 out=69/2371d/42da7699e15b9765 events=1307:21e99d0295c3b310 spans=35:18dbdf81017e13a0 err=\"\"",
		"TT-GH/uniform/skew=true/diskloss":            "resp=146467815328 stepI=133766812450 rscans=3 iter=8 tape=2500/332 disk=332/382 seeks=0 mem=12 dhw=67 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=2927:c2dd291c6904c6b4 spans=43:df851ce4b8a8e0f5 err=\"\"",
		"TT-GH/zipf99/skew=false":                     "resp=75987907814 stepI=61130870507 rscans=2 iter=8 tape=955/325 disk=325/325 seeks=0 mem=12 dhw=143 heavy=0 parts=0 restarts=0 out=5492/5931/3867e82836a6c318 events=1354:fb1e8a7feb323d36 spans=35:90e77cfa0dfc57f2 err=\"\"",
		"TT-GH/zipf99/skew=false/diskloss":            "resp=147623837239 stepI=132766799932 rscans=3 iter=8 tape=2555/325 disk=325/376 seeks=0 mem=12 dhw=67 heavy=0 parts=0 restarts=1 out=5492/5931/3867e82836a6c318 events=2965:2b3c40eb1c288f0c spans=43:0ab67195015f65b4 err=\"\"",
		"TT-GH/zipf99/skew=true":                      "resp=75483497198 stepI=62704093069 rscans=2 iter=9 tape=902/326 disk=395/325 seeks=0 mem=10 dhw=143 heavy=1 parts=9 restarts=0 out=5492/5931/3867e82836a6c318 events=1328:df5c293c755cb9b7 spans=39:845cf294b71e382b err=\"\"",
		"TT-GH/zipf99/skew=true/diskloss":             "resp=148491448560 stepI=135712044431 rscans=3 iter=9 tape=2502/326 disk=395/376 seeks=0 mem=10 dhw=67 heavy=1 parts=9 restarts=1 out=5492/5931/3867e82836a6c318 events=2930:429262fda92c88c1 spans=47:19be389ddf6fc6b2 err=\"\"",
		"TT-GH/zipf99/skew=true/filters":              "resp=65346155639 stepI=55075591581 rscans=2 iter=9 tape=838/262 disk=323/261 seeks=0 mem=9 dhw=116 heavy=1 parts=9 restarts=0 out=5174/4ab3/f4da6db750655f3a events=1188:1e4629ab328f598c spans=39:81fe2b92a9ce4c0c err=\"\"",
		"DT-GH/zipf99/skew=true/diskloss@stepII=10%":  "resp=75615374965 stepI=7606097036 rscans=7 iter=5 tape=437/0 disk=641/487 seeks=0 mem=10 dhw=123 heavy=1 parts=9 restarts=1 out=5492/5931/3867e82836a6c318 events=1251:df89d36efaf60eb8 spans=100:40d060a47319b711 err=\"\"",
		"DT-GH/zipf99/skew=true/diskloss@stepII=50%":  "resp=90577565909 stepI=7606097036 rscans=8 iter=6 tape=564/0 disk=690/628 seeks=0 mem=10 dhw=251 heavy=1 parts=9 restarts=1 out=5492/5931/3867e82836a6c318 events=1548:8e1ae42760571c90 spans=108:228606ae41805e37 err=\"\"",
		"CDT-GH/zipf99/skew=true/diskloss@stepII=10%": "resp=74804964323 stepI=7606097036 rscans=7 iter=5 tape=428/0 disk=641/479 seeks=0 mem=10 dhw=123 heavy=1 parts=9 restarts=0 out=5492/5931/3867e82836a6c318 events=1233:8b6fff93f9a0500a spans=100:476f5d1fef011290 err=\"\"",
		"CDT-GH/zipf99/skew=true/diskloss@stepII=50%": "resp=89812757134 stepI=7606097036 rscans=7 iter=5 tape=578/0 disk=662/634 seeks=0 mem=19 dhw=256 heavy=1 parts=9 restarts=0 out=5492/5931/3867e82836a6c318 events=1553:0b3d01e157de56a2 spans=103:b17741fa8d3d7489 err=\"\"",
		"TT-GH/uniform/skew=false/diskloss@S-pass":    "resp=99839067165 stepI=87138064287 rscans=2 iter=8 tape=1412/332 disk=332/394 seeks=0 mem=12 dhw=154 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=1885:40203c6ff557bdd0 spans=39:b67504ea8900d690 err=\"\"",
		"TT-GH/uniform/skew=true/diskloss@S-pass":     "resp=99839067165 stepI=87138064287 rscans=2 iter=8 tape=1412/332 disk=332/394 seeks=0 mem=12 dhw=154 heavy=0 parts=0 restarts=1 out=69/2371d/42da7699e15b9765 events=1885:40203c6ff557bdd0 spans=39:b67504ea8900d690 err=\"\"",
		"TT-GH/zipf99/skew=false/diskloss@S-pass":     "resp=103151916634 stepI=88294879327 rscans=2 iter=8 tape=1467/333 disk=333/411 seeks=0 mem=12 dhw=143 heavy=0 parts=0 restarts=1 out=5492/5931/3867e82836a6c318 events=1946:dc45cf50829a0b19 spans=39:32db683e72f18350 err=\"\"",
		"TT-GH/zipf99/skew=true/diskloss@S-pass":      "resp=103705922941 stepI=90926518812 rscans=2 iter=9 tape=1414/334 disk=403/411 seeks=0 mem=10 dhw=143 heavy=1 parts=9 restarts=1 out=5492/5931/3867e82836a6c318 events=1913:d8351cba3f724508 spans=43:ea960410527a92b6 err=\"\"",
	}
	var cases []stepICase
	for _, sym := range []string{"DT-GH", "CDT-GH", "CTT-GH", "TT-GH"} {
		for _, theta := range []float64{0, 0.99} {
			for _, skew := range []bool{false, true} {
				cases = append(cases, stepICase{sym: sym, theta: theta, skew: skew})
			}
		}
		cases = append(cases, stepICase{sym: sym, theta: 0.99, skew: true, filters: true})
	}
	sawWindowRestart, sawRefined := false, false
	record := new(strings.Builder)
	check := func(c stepICase, r stepIRun) {
		key := c.name()
		got := r.fingerprint()
		if got != want[key] {
			t.Errorf("%s:\n got %s\nwant %s", key, got, want[key])
		}
		fmt.Fprintf(record, "%q: %q,\n", key, got)
		if r.st.UnitRestarts >= 1 && restartedAfterSpool(r.tr) {
			sawWindowRestart = true
		}
		if r.st.SkewPartitions > stepIBuckets(t, c) {
			sawRefined = true
		}
	}
	for _, c := range cases {
		clean := runStepI(t, c, nil)
		if clean.err != nil {
			t.Fatalf("%s: %v", c.name(), clean.err)
		}
		check(c, clean)
		if c.filters {
			continue
		}
		c.diskLoss = true
		at := diskLossTime(t, c.sym, clean)
		lost := runStepI(t, c, mustFaults("diskfail=1@%v", time.Duration(at)))
		if lost.err != nil {
			t.Fatalf("%s: %v", c.name(), lost.err)
		}
		if lost.pairSum != clean.pairSum {
			t.Errorf("%s: output %x differs from the clean run's %x", c.name(), lost.pairSum, clean.pairSum)
		}
		check(c, lost)
	}
	var late []stepICase
	for _, sym := range []string{"DT-GH", "CDT-GH"} {
		for _, frac := range []float64{0.1, 0.5} {
			late = append(late, stepICase{sym: sym, theta: 0.99, skew: true, stepII: frac})
		}
	}
	for _, theta := range []float64{0, 0.99} {
		for _, skew := range []bool{false, true} {
			late = append(late, stepICase{sym: "TT-GH", theta: theta, skew: skew, sPass: true})
		}
	}
	for _, c := range late {
		clean := runStepI(t, c, nil)
		if clean.err != nil {
			t.Fatalf("%s: %v", c.name(), clean.err)
		}
		lost := runStepI(t, c, mustFaults("diskfail=1@%v", time.Duration(lateLossTime(t, c, clean))))
		if lost.err != nil {
			t.Fatalf("%s: %v", c.name(), lost.err)
		}
		if lost.pairSum != clean.pairSum {
			t.Errorf("%s: output %x differs from the clean run's %x", c.name(), lost.pairSum, clean.pairSum)
		}
		check(c, lost)
	}
	if t.Failed() {
		t.Logf("recorded:\n%s", record)
	}
	if !sawWindowRestart {
		t.Error("no case restarted a hash-window after spooling a bucket")
	}
	if !sawRefined {
		t.Error("no case refined the partition map")
	}
}
