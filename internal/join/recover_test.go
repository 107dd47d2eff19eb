package join

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/device/filedev"
	"repro/internal/device/simdev"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/tape"
)

// runWith runs method symbol over a fresh small spec with the given
// fault schedule (nil = clean) and returns the result and the expected
// match count.
// mustFaults parses the fault spec fmt.Sprintf(format, args...).
func mustFaults(format string, args ...any) *fault.Schedule {
	s, err := fault.Parse(fmt.Sprintf(format, args...))
	if err != nil {
		panic(err)
	}
	return s
}

func runWith(t *testing.T, symbol string, res Resources, sched *fault.Schedule) (*Result, int64, error) {
	t.Helper()
	spec := testSpec(t)
	want := relation.ExpectedMatches(spec.R, spec.S)
	res.Faults = sched
	sink := &CountSink{}
	result, err := Run(mustMethod(t, symbol), spec, res, sink)
	return result, want, err
}

func mustMethod(t *testing.T, symbol string) Method {
	t.Helper()
	m, err := BySymbol(symbol)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTransientFaultsRecoverEveryMethod injects retryable read faults
// on both tapes into every join method and demands a correct join with
// the recovery charged in virtual time.
func TestTransientFaultsRecoverEveryMethod(t *testing.T) {
	for _, m := range Methods() {
		m := m
		t.Run(m.Symbol(), func(t *testing.T) {
			res := fastRes(10, 64)
			clean, want, err := runWith(t, m.Symbol(), res, nil)
			if err != nil {
				t.Fatal(err)
			}

			spec := testSpec(t)
			sched := mustFaults("transient=R:%d:2,transient=S:%d", spec.R.Region.Start+3, spec.S.Region.Start+7)
			faulted, _, err := runWith(t, m.Symbol(), res, sched)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}

			if faulted.Stats.OutputTuples != want {
				t.Fatalf("matches = %d, want %d", faulted.Stats.OutputTuples, want)
			}
			if faulted.Stats.Faults < 3 {
				t.Fatalf("Faults = %d, want >= 3 injected", faulted.Stats.Faults)
			}
			if faulted.Stats.Retries < 3 {
				t.Fatalf("Retries = %d, want >= 3", faulted.Stats.Retries)
			}
			if faulted.Stats.RecoveryTime <= 0 {
				t.Fatal("no recovery time charged")
			}
			if faulted.Stats.Response <= clean.Stats.Response {
				t.Fatalf("faulted response %v not above clean %v",
					faulted.Stats.Response, clean.Stats.Response)
			}
		})
	}
}

// TestCorruptDeliveryRereadRecovers injects delivered-copy corruption:
// the stored blocks are intact, so the checksum failure must trigger a
// re-read that recovers, not a panic or a wrong answer.
func TestCorruptDeliveryRereadRecovers(t *testing.T) {
	for _, symbol := range []string{"DT-NB", "CDT-GH", "CTT-GH"} {
		symbol := symbol
		t.Run(symbol, func(t *testing.T) {
			spec := testSpec(t)
			sched := mustFaults("corrupt=S:%d:2", spec.S.Region.Start+5)
			faulted, want, err := runWith(t, symbol, fastRes(10, 64), sched)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if faulted.Stats.OutputTuples != want {
				t.Fatalf("matches = %d, want %d", faulted.Stats.OutputTuples, want)
			}
			if faulted.Stats.Retries < 2 {
				t.Fatalf("Retries = %d, want >= 2", faulted.Stats.Retries)
			}
		})
	}
}

// TestDiskCorruptionSurfacesTypedError verifies the MustDecode audit:
// corruption on the disk path surfaces as block.ErrBadChecksum, never
// a panic, both with recovery off (typed error returned) and with
// recovery on (re-read absorbs it).
func TestDiskCorruptionSurfacesTypedError(t *testing.T) {
	// Recovery disabled: DT-NB reads R back from disk; a corrupt
	// delivered copy must fail the join with the typed checksum error.
	res := fastRes(10, 64)
	res.DisableRecovery = true
	sched := mustFaults("corrupt=disk:5")
	_, _, err := runWith(t, "DT-NB", res, sched)
	if err == nil {
		t.Fatal("corrupt disk delivery with recovery off should fail the join")
	}
	if !errors.Is(err, block.ErrBadChecksum) {
		t.Fatalf("err = %v, want block.ErrBadChecksum in chain", err)
	}

	// Recovery enabled: the same corruption is absorbed by a re-read.
	sched = mustFaults("corrupt=disk:5")
	faulted, want, err := runWith(t, "DT-NB", fastRes(10, 64), sched)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if faulted.Stats.OutputTuples != want {
		t.Fatalf("matches = %d, want %d", faulted.Stats.OutputTuples, want)
	}
	if faulted.Stats.Retries < 1 {
		t.Fatalf("Retries = %d, want >= 1", faulted.Stats.Retries)
	}
}

// TestRecoveryDisabledFailsFast: with recovery off, the first injected
// fault aborts the join with the transient cause intact.
func TestRecoveryDisabledFailsFast(t *testing.T) {
	spec := testSpec(t)
	res := fastRes(10, 64)
	res.DisableRecovery = true
	sched := mustFaults("transient=R:%d", spec.R.Region.Start+3)
	result, _, err := runWith(t, "DT-GH", res, sched)
	if err == nil {
		t.Fatal("transient fault with recovery off should abort the join")
	}
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("err = %v, want transient cause preserved", err)
	}
	if result != nil && result.Stats.Retries != 0 {
		t.Fatalf("Retries = %d with recovery disabled", result.Stats.Retries)
	}
}

// TestRetryBudgetExhausted: a fault that outlives every retry and unit
// restart surfaces as the typed ErrFaultExhausted.
func TestRetryBudgetExhausted(t *testing.T) {
	spec := testSpec(t)
	sched := mustFaults("transient=S:%d:1000", spec.S.Region.Start+7)
	_, _, err := runWith(t, "DT-NB", fastRes(10, 64), sched)
	if err == nil {
		t.Fatal("persistent fault should exhaust the retry budget")
	}
	if !errors.Is(err, fault.ErrFaultExhausted) {
		t.Fatalf("err = %v, want ErrFaultExhausted", err)
	}
}

// TestHardMediaErrorNotRetried: hard media errors are terminal — no
// retry budget is spent on them.
func TestHardMediaErrorNotRetried(t *testing.T) {
	spec := testSpec(t)
	sched := mustFaults("hard=S:%d", spec.S.Region.Start+7)
	result, _, err := runWith(t, "DT-NB", fastRes(10, 64), sched)
	if err == nil {
		t.Fatal("hard media error should fail the join")
	}
	if !errors.Is(err, fault.ErrMedia) {
		t.Fatalf("err = %v, want fault.ErrMedia", err)
	}
	if result != nil && result.Stats.Retries != 0 {
		t.Fatalf("Retries = %d on a hard error", result.Stats.Retries)
	}
}

// table3Res is the acceptance-test geometry: Table 3's shape (|S| =
// 2|R|, D = |R|/2, two disks) at test scale, sized so losing one of
// the two disks still leaves an assemblable bucket window.
func table3Spec(t *testing.T) (Spec, Resources) {
	t.Helper()
	spec := specWithSizes(t, 320, 640, 4)
	return spec, fastRes(20, 160)
}

// TestCTTGHFaultedTable3Acceptance is the PR's acceptance scenario: a
// Table-3-shaped CTT-GH join survives a transient tape error plus a
// mid-run disk failure, produces the exact cardinality, and its
// response time exceeds the fault-free run by the charged recovery.
func TestCTTGHFaultedTable3Acceptance(t *testing.T) {
	spec, res := table3Spec(t)
	want := relation.ExpectedMatches(spec.R, spec.S)
	sink := &CountSink{}
	clean, err := Run(mustMethod(t, "CTT-GH"), spec, res, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Matches != want {
		t.Fatalf("clean matches = %d, want %d", sink.Matches, want)
	}

	for _, tc := range []struct {
		name string
		frac float64 // disk death time as a fraction of the clean response
	}{
		{"disk dies in Step I", 0.10},
		{"disk dies in Step II", 0.70},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec, res := table3Spec(t)
			sched := mustFaults("transient=R:%d:2,diskfail=1@%v",
				spec.R.Region.Start+11, time.Duration(sim.Time(float64(clean.Stats.Response)*tc.frac)))
			res.Faults = sched
			sink := &CountSink{}
			faulted, err := Run(mustMethod(t, "CTT-GH"), spec, res, sink)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if sink.Matches != want {
				t.Fatalf("matches = %d, want %d", sink.Matches, want)
			}
			if faulted.Stats.DisksLost != 1 {
				t.Fatalf("DisksLost = %d, want 1", faulted.Stats.DisksLost)
			}
			if faulted.Stats.Retries < 2 {
				t.Fatalf("Retries = %d, want >= 2 for the transient", faulted.Stats.Retries)
			}
			if faulted.Stats.RecoveryTime <= 0 {
				t.Fatal("no recovery time charged")
			}
			if faulted.Stats.Response <= clean.Stats.Response {
				t.Fatalf("faulted response %v not above clean %v",
					faulted.Stats.Response, clean.Stats.Response)
			}
		})
	}
}

// TestDriveLossDegradesToSequential: a permanent tape-drive failure
// mid-run re-plans onto a shared transport and a feasible sequential
// method, still producing the exact output.
func TestDriveLossDegradesToSequential(t *testing.T) {
	// CDT-GH needs all of R on disk, so give it a roomy array.
	spec := specWithSizes(t, 320, 640, 4)
	res := fastRes(20, 500)
	want := relation.ExpectedMatches(spec.R, spec.S)
	clean, err := Run(mustMethod(t, "CDT-GH"), spec, res, &CountSink{})
	if err != nil {
		t.Fatal(err)
	}

	spec = specWithSizes(t, 320, 640, 4)
	sched := mustFaults("drivefail=S@%v", clean.Stats.Response/3)
	res.Faults = sched
	sink := &CountSink{}
	faulted, err := Run(mustMethod(t, "CDT-GH"), spec, res, sink)
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if sink.Matches != want {
		t.Fatalf("matches = %d, want %d", sink.Matches, want)
	}
	if !faulted.Stats.DriveLost {
		t.Fatal("DriveLost not recorded")
	}
	if faulted.Stats.DegradedTo == "" {
		t.Fatal("DegradedTo empty after drive loss")
	}
	found := false
	for _, c := range degradeCandidates {
		if faulted.Stats.DegradedTo == c.Symbol() {
			found = true
		}
	}
	if !found {
		t.Fatalf("DegradedTo = %q, not a sequential candidate %v",
			faulted.Stats.DegradedTo, degradeCandidates)
	}
	if faulted.Stats.Response <= clean.Stats.Response {
		t.Fatalf("degraded response %v not above clean %v",
			faulted.Stats.Response, clean.Stats.Response)
	}
}

// TestSameFaultSeedIsDeterministic is the seed-determinism regression:
// two runs under the identical seeded random schedule must produce
// byte-identical stats and device traces.
func TestSameFaultSeedIsDeterministic(t *testing.T) {
	run := func() (Stats, string) {
		spec := testSpec(t)
		res := fastRes(10, 64)
		res.Faults = fault.Random(99, 8, 20)
		res.Spans = obs.NewTracker()
		sink := &CountSink{}
		result, err := Run(mustMethod(t, "CTT-GH"), spec, res, sink)
		if err != nil {
			t.Fatal(err)
		}
		return result.Stats, obs.Timeline(res.Spans.Events(), sim.Time(result.Stats.Response), 120)
	}
	statsA, traceA := run()
	statsB, traceB := run()
	if !reflect.DeepEqual(statsA, statsB) {
		t.Fatalf("stats differ across identical seeds:\nA: %+v\nB: %+v", statsA, statsB)
	}
	if traceA != traceB {
		t.Fatal("trace timelines differ across identical seeds")
	}
	if statsA.Faults == 0 {
		t.Fatal("seeded schedule injected nothing; test is vacuous")
	}
}

// TestFaultStatsZeroOnCleanRuns: without a schedule the recovery
// counters stay zero and response time is untouched by recovery code.
func TestFaultStatsZeroOnCleanRuns(t *testing.T) {
	for _, m := range Methods() {
		clean, _, err := runWith(t, m.Symbol(), fastRes(10, 64), nil)
		if err != nil {
			t.Fatal(err)
		}
		st := clean.Stats
		if st.Faults != 0 || st.Retries != 0 || st.UnitRestarts != 0 ||
			st.RecoveryTime != 0 || st.DisksLost != 0 || st.DriveLost || st.DegradedTo != "" {
			t.Fatalf("%s: clean run has recovery stats: %+v", m.Symbol(), st)
		}
	}
}

// commitPairs returns the pairs attribute of every stage-commit span of
// a run, in commit order.
func commitPairs(t *testing.T, tr *obs.Tracker) []string {
	t.Helper()
	var out []string
	for _, sp := range tr.Spans() {
		if sp.Name != "stage-commit" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "pairs" {
				out = append(out, a.Value)
			}
		}
	}
	return out
}

// deliveryCase is one way output can reach a sink: the sink, and a
// function returning what it received in a comparable form.
type deliveryCase struct {
	name string
	sink func() (Sink, func() any)
}

// countCase feeds a CountSink, a Rewinder: a whole-run-staged run
// delivers to it live and rewinds it by mark.
func countCase(name string) deliveryCase {
	return deliveryCase{name, func() (Sink, func() any) {
		c := &CountSink{}
		return c, func() any { return *c }
	}}
}

// logOnlyCase feeds an oracleSink, which has no Mark or Rewind: a
// whole-run-staged run holds its pairs in the staging log. Its output
// compares as a sorted multiset.
func logOnlyCase(name string) deliveryCase {
	return deliveryCase{name, func() (Sink, func() any) {
		o := &oracleSink{}
		return o, func() any { return o.sorted() }
	}}
}

// TestUnitRestartDeliversExactlyOnce: a disk read fault that outlives
// the read-retry budget fails an S-chunk unit after it has already
// emitted pairs; the unit rewinds its staged output — the staging log
// to its savepoint, a live-fed Rewinder sink to its mark — and
// restarts. Under whole-run staging on both paths and under streaming
// the sink must receive every pair exactly once, and each unit's
// stage-commit span must report the unit's own pairs — the same
// sequence as the fault-free run, not a running total.
func TestUnitRestartDeliversExactlyOnce(t *testing.T) {
	for _, tc := range []deliveryCase{
		countCase("whole-run staging"),
		logOnlyCase("whole-run staging, log only"),
		// A StreamSink that is never satisfied: streaming delivery,
		// full output.
		{"streaming", func() (Sink, func() any) {
			c := &CountSink{}
			return &StopSink{Inner: c}, func() any { return *c }
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(sched *fault.Schedule) (*Result, any, []string) {
				res := fastRes(10, 64)
				res.Faults = sched
				res.Spans = obs.NewTracker()
				sink, got := tc.sink()
				result, err := Run(mustMethod(t, "DT-NB"), testSpec(t), res, sink)
				if err != nil {
					t.Fatal(err)
				}
				return result, got(), commitPairs(t, res.Spans)
			}
			clean, cleanSink, cleanCommits := run(nil)
			if len(cleanCommits) < 2 || cleanCommits[0] == "0" {
				t.Fatalf("clean run commits %v: need several non-empty units", cleanCommits)
			}
			// Block 12 of the disk copy of R sits mid-scan, so the first
			// chunk's unit has emitted pairs when its read budget (1 + 4
			// retries) runs out; the restarted unit absorbs the sixth.
			sched := mustFaults("transient=disk:12:6")
			faulted, sink, commits := run(sched)
			if faulted.Stats.UnitRestarts != 1 {
				t.Fatalf("UnitRestarts = %d, want 1", faulted.Stats.UnitRestarts)
			}
			if !reflect.DeepEqual(sink, cleanSink) {
				t.Fatalf("faulted sink %+v, clean %+v", sink, cleanSink)
			}
			if faulted.Stats.OutputTuples != clean.Stats.OutputTuples {
				t.Fatalf("OutputTuples = %d, clean %d", faulted.Stats.OutputTuples, clean.Stats.OutputTuples)
			}
			if !reflect.DeepEqual(commits, cleanCommits) {
				t.Fatalf("stage-commit pairs %v, clean run %v", commits, cleanCommits)
			}
		})
	}
}

// TestDriveLossReplanDeliversExactlyOnce: a drive dies after units of
// the first plan have committed into the whole-run staging — the log,
// or a live-fed Rewinder sink; the re-plan rewinds it to the run's
// start and the fallback method's output is the only one delivered —
// byte for byte the fault-free multiset — with the fallback's
// stage-commit spans adding up to it.
func TestDriveLossReplanDeliversExactlyOnce(t *testing.T) {
	for _, tc := range []deliveryCase{countCase("rewinder"), logOnlyCase("log only")} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := fastRes(20, 500)
			cleanSink, cleanGot := tc.sink()
			clean, err := Run(mustMethod(t, "CDT-GH"), specWithSizes(t, 320, 640, 4), res, cleanSink)
			if err != nil {
				t.Fatal(err)
			}

			res.Faults = mustFaults("drivefail=S@%v", clean.Stats.Response*2/3)
			res.Spans = obs.NewTracker()
			sink, got := tc.sink()
			faulted, err := Run(mustMethod(t, "CDT-GH"), specWithSizes(t, 320, 640, 4), res, sink)
			if err != nil {
				t.Fatalf("degraded run: %v", err)
			}
			if faulted.Stats.DegradedTo == "" {
				t.Fatal("no re-plan happened")
			}
			if !reflect.DeepEqual(got(), cleanGot()) {
				t.Fatalf("degraded run delivered %d pairs, clean %d; outputs differ",
					sink.Count(), cleanSink.Count())
			}
			// Span IDs grow in creation order.
			var replanID, before, after int64
			for _, sp := range res.Spans.Spans() {
				if sp.Name == "degrade-replan" {
					replanID = sp.ID
				}
			}
			for _, sp := range res.Spans.Spans() {
				if sp.Name != "stage-commit" {
					continue
				}
				n, err := strconv.ParseInt(sp.Attrs[0].Value, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				if sp.ID < replanID {
					before += n
				} else {
					after += n
				}
			}
			if before == 0 {
				t.Fatal("no unit committed before the drive died; the test does not exercise the rewind")
			}
			if after != cleanSink.Count() {
				t.Fatalf("fallback committed %d pairs, want %d", after, cleanSink.Count())
			}
		})
	}
}

// TestWholeRunFirstTupleAtCommit: a whole-run-staged run delivers its
// first pair when it commits, at run end, whether its pairs waited in
// the staging log or reached a Rewinder sink live.
func TestWholeRunFirstTupleAtCommit(t *testing.T) {
	for _, tc := range []deliveryCase{countCase("rewinder"), logOnlyCase("log only")} {
		sink, _ := tc.sink()
		result, err := Run(mustMethod(t, "DT-NB"), testSpec(t), fastRes(10, 64), sink)
		if err != nil {
			t.Fatal(err)
		}
		if st := result.Stats; st.OutputTuples == 0 || st.FirstTuple != st.Response {
			t.Errorf("%s: FirstTuple %v, Response %v over %d pairs; want the commit time",
				tc.name, st.FirstTuple, st.Response, st.OutputTuples)
		}
	}
}

// tallySink is a CountSink that also tallies every Emit call. It keeps
// CountSink's promoted Mark and Rewind on purpose: emits survives a
// rewind, so it witnesses pairs a rewound sink no longer shows.
type tallySink struct {
	CountSink
	emits int64
}

func (s *tallySink) Emit(p *sim.Proc, r, t block.Tuple) {
	s.emits++
	s.CountSink.Emit(p, r, t)
}

// TestFailedRunLeavesSinkUntouched: a whole-run-staged run whose
// retries run out after it has emitted pairs returns an error and
// leaves its sink as it found it — a live-fed Rewinder rewound to its
// mark, a pair-keeping sink never fed from the log.
func TestFailedRunLeavesSinkUntouched(t *testing.T) {
	// SYM-H's tapeS schedule from TestConcurrentPipelineSchedule: the
	// S transient outlives one read's retry budget after the pipelined
	// phase has emitted pairs, and that phase has no unit to restart.
	run := func(sink Sink) {
		t.Helper()
		spec := testSpec(t)
		res, _ := pinResources(128, mustFaults("transient=S:%d:6", spec.S.Region.Start+40))
		if _, err := Run(mustMethod(t, "SYM-H"), spec, res, sink); !errors.Is(err, fault.ErrFaultExhausted) {
			t.Fatalf("%T: err = %v, want the exhausted-retry error", sink, err)
		}
	}
	tally := &tallySink{}
	run(tally)
	if tally.emits == 0 {
		t.Fatal("no pairs emitted before the failure; the test does not exercise the rewind")
	}
	c := &CountSink{}
	run(c)
	if *c != (CountSink{}) {
		t.Fatalf("CountSink after a failed run = %+v, want zero", *c)
	}
	ps := &PairSink{}
	run(ps)
	if len(ps.Pairs) != 0 {
		t.Fatalf("PairSink after a failed run holds %d pairs, want none", len(ps.Pairs))
	}
}

// TestDriveLossSharedTransportAlikeOnBackends degrades a DT-NB join
// onto one shared transport (drivefail=S@0s) on both backends: the
// transport switches must cost the same cartridge exchanges and seeks
// in the degraded drives' stats and in the event stream.
func TestDriveLossSharedTransportAlikeOnBackends(t *testing.T) {
	type counts struct{ exchanges, seeks, exchangeEvents, seekEvents int64 }
	run := func(b device.Backend) counts {
		spec := specWithSizes(t, 32, 128, 4)
		res := fastRes(64, 256)
		res.Tape = tape.DLT4000()
		res.Backend = b
		res.Faults = mustFaults("drivefail=S@0s")
		res.Spans = obs.NewTracker()
		s, err := NewSession(res)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var result *Result
		s.Kernel().Spawn("join", func(p *sim.Proc) {
			result, err = s.Exec(p, mustMethod(t, "DT-NB"), spec, &CountSink{}, ExecOptions{})
		})
		if kerr := s.Kernel().Run(); kerr != nil {
			t.Fatal(kerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if result.Stats.DegradedTo != "DT-NB" {
			t.Fatalf("%s: degraded to %q, want DT-NB", b.Name(), result.Stats.DegradedTo)
		}
		var c counts
		for _, d := range []device.Drive{s.DriveR(), s.DriveS()} {
			c.exchanges += d.DriveStats().Exchanges
			c.seeks += d.DriveStats().Seeks
		}
		for _, e := range res.Spans.Events() {
			switch e.Kind {
			case obs.TapeExchange:
				c.exchangeEvents++
			case obs.TapeSeek:
				c.seekEvents++
			}
		}
		return c
	}
	simC := run(simdev.Backend{})
	fileC := run(filedev.New(t.TempDir()))
	if simC != fileC {
		t.Errorf("shared transport: sim %+v, file %+v", simC, fileC)
	}
	if simC.exchanges == 0 || simC.exchangeEvents != simC.exchanges {
		t.Errorf("sim shared transport: %+v, want exchanges charged and traced", simC)
	}
}

// TestDiskLossAlikeOnBackends loses disk 1 at time zero (in Step I)
// and in the middle of Step II, under DT-GH and CDT-GH on both
// backends: every run must lose that one disk, recover, and deliver
// the clean run's output. A loss in Step I restarts the hash-R unit; a
// loss in DT-GH's Step II restarts its S chunk, while CDT-GH's
// pipeline hands the chunk to its sequential tail, which Stats does
// not count as a unit restart. The file backend is paced, so its
// virtual clock never runs ahead of the simulator's divided by the
// pace: the simulator's mid-Step-II instant so divided still falls
// inside the file run.
func TestDiskLossAlikeOnBackends(t *testing.T) {
	const pace = 2000
	for _, method := range []string{"DT-GH", "CDT-GH"} {
		run := func(b device.Backend, faults *fault.Schedule) (*Result, uint64) {
			res := fastRes(12, 400)
			res.Backend = b
			res.Faults = faults
			sink := &CountSink{}
			r, err := Run(mustMethod(t, method), specWithSizes(t, 32, 128, 4), res, sink)
			if err != nil {
				t.Fatalf("%s on %s: %v", method, b.Name(), err)
			}
			return r, sink.Hash()
		}
		clean, want := run(simdev.Backend{}, nil)
		mid := clean.Stats.StepI + (clean.Stats.Response-clean.Stats.StepI)/2
		for _, c := range []struct {
			at       sim.Duration
			restarts bool
		}{{0, true}, {mid, method == "DT-GH"}} {
			for _, file := range []bool{false, true} {
				var b device.Backend = simdev.Backend{}
				at := c.at
				if file {
					fb := filedev.New(t.TempDir())
					fb.PaceScale = pace
					b, at = fb, at/pace
				}
				r, got := run(b, mustFaults("diskfail=1@%v", at))
				if r.Stats.DisksLost != 1 || c.restarts && r.Stats.UnitRestarts < 1 || got != want {
					t.Errorf("%s on %s, disk 1 lost at %v: %d disks lost, %d unit restarts, output %x (clean %x)",
						method, b.Name(), at, r.Stats.DisksLost, r.Stats.UnitRestarts, got, want)
				}
			}
		}
	}
}

// TestGHLateDiskLossCompletes loses disk 1 in the Grace Hash methods'
// Step II, every 5 % of it, at geometries where the surviving array is
// tight. At D = 200 the whole 128-block S is one chunk, so a late loss
// hits a unit that has already committed buckets, and the surviving
// array holds R's re-staged buckets beside only part of that chunk. At
// the two smaller geometries R's buckets must be re-staged into room
// the failed attempt's S buckets held. Every run must still lose
// exactly that disk and deliver the clean run's output: no pair
// missing, none twice.
func TestGHLateDiskLossCompletes(t *testing.T) {
	for _, method := range []string{"DT-GH", "CDT-GH"} {
		for _, g := range []struct{ r, s, m, d int64 }{{32, 128, 12, 200}, {24, 96, 48, 64}, {32, 256, 12, 120}} {
			run := func(faults *fault.Schedule) (*Result, *CountSink, error) {
				res := fastRes(g.m, g.d)
				res.Faults = faults
				sink := &CountSink{}
				r, err := Run(mustMethod(t, method), specWithSizes(t, g.r, g.s, 4), res, sink)
				return r, sink, err
			}
			clean, want, err := run(nil)
			if err != nil {
				t.Fatalf("%s %+v clean: %v", method, g, err)
			}
			stepII := clean.Stats.Response - clean.Stats.StepI
			for pct := 5; pct < 100; pct += 5 {
				at := clean.Stats.StepI + stepII*sim.Duration(pct)/100
				r, got, err := run(mustFaults("diskfail=1@%v", time.Duration(at)))
				switch {
				case err != nil:
					t.Errorf("%s %+v, disk 1 lost at %d%% of Step II: %v", method, g, pct, err)
				case r.Stats.DisksLost != 1 || got.Matches != want.Matches || got.Hash() != want.Hash():
					t.Errorf("%s %+v, disk 1 lost at %d%% of Step II: %d disks lost, %d matches %x (clean %d %x)",
						method, g, pct, r.Stats.DisksLost, got.Matches, got.Hash(), want.Matches, want.Hash())
				}
			}
		}
	}
}

// TestCDTGHSizesSBufferFromSurvivingDisk loses disk 1 before CDT-GH
// starts. Its S double buffer must be sized from the surviving D less
// R's buckets: sized from the configured D (367 blocks on a 200-block
// array here), the hasher overflows on its first chunk and the whole of
// S runs in the sequential tail, which stages S on the join proc.
func TestCDTGHSizesSBufferFromSurvivingDisk(t *testing.T) {
	run := func(faults *fault.Schedule) (*Result, *CountSink, *obs.Tracker) {
		res := fastRes(12, 400)
		res.Faults = faults
		res.Spans = obs.NewTracker()
		sink := &CountSink{}
		r, err := Run(mustMethod(t, "CDT-GH"), specWithSizes(t, 32, 320, 4), res, sink)
		if err != nil {
			t.Fatal(err)
		}
		return r, sink, res.Spans
	}
	_, want, _ := run(nil)
	r, got, tr := run(mustFaults("diskfail=1@0s"))
	if r.Stats.DisksLost != 1 || got.Matches != want.Matches || got.Hash() != want.Hash() {
		t.Fatalf("%d disks lost, %d matches %x (clean %d %x)",
			r.Stats.DisksLost, got.Matches, got.Hash(), want.Matches, want.Hash())
	}
	for _, sp := range tr.Spans() {
		if sp.Name == "stage-S" && sp.Proc != "s-hasher" {
			t.Fatalf("S staged by %s at %v: Step II fell back to the sequential tail", sp.Proc, sp.Start)
		}
	}
}

// nopInjector is a fault injector that never decides a fault: its
// presence alone marks a run whose deliveries could be corrupted.
type nopInjector struct{}

func (nopInjector) Decide(fault.Op) fault.Decision { return fault.Decision{} }

// TestReadDevVerifiesOnlyUnderInjector pins where a delivery's CRC is
// checked. A stub read returns a well-framed block whose checksum is
// wrong. Under a fault injector readDev verifies every delivery: the
// read fails typed with recovery off and is re-read with recovery on.
// Without one it delivers the block unchecked, because the device
// vouches for it — every corrupting effect is decided by the injector,
// so a sim device returns the bytes it stored and a file read has
// passed its frame CRC.
func TestReadDevVerifiesOnlyUnderInjector(t *testing.T) {
	bld := block.NewBuilder(1)
	bld.Append(block.Tuple{Key: 7, Payload: []byte("payload")})
	good := bld.Finish()
	bad := append(block.Block(nil), good...)
	bad[8] ^= 0xff // the CRC field: header and framing stay valid
	if err := bad.EachVerified(func(block.Tuple) {}); err != nil {
		t.Fatalf("stub block is not well framed: %v", err)
	}
	if err := bad.Verify(); !errors.Is(err, block.ErrBadChecksum) {
		t.Fatalf("stub block Verify = %v, want ErrBadChecksum", err)
	}

	for _, c := range []struct {
		name      string
		inj       fault.Injector
		noRecover bool
		wantErr   error
		wantBlk   block.Block
		wantReads int
	}{
		{"injector/no-recover", nopInjector{}, true, block.ErrBadChecksum, nil, 1},
		{"injector/recover", nopInjector{}, false, nil, good, 2},
		{"no-injector", nil, false, nil, bad, 1},
		{"no-injector/no-recover", nil, true, nil, bad, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel()
			e := &env{
				k: k, res: Resources{DisableRecovery: c.noRecover},
				stats: &Stats{}, inj: c.inj,
			}
			reads := 0
			read := func() ([]block.Block, error) {
				reads++
				if reads == 1 {
					return []block.Block{bad}, nil
				}
				return []block.Block{good}, nil
			}
			var got []block.Block
			var err error
			k.Spawn("reader", func(p *sim.Proc) { got, err = e.readDev(p, "stub", read) })
			if rerr := k.Run(); rerr != nil {
				t.Fatal(rerr)
			}
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
			} else if err != nil {
				t.Fatalf("err = %v", err)
			} else if len(got) != 1 || !reflect.DeepEqual(got[0], c.wantBlk) {
				t.Fatalf("delivered %x, want %x", got, c.wantBlk)
			}
			if reads != c.wantReads || e.stats.Retries != int64(c.wantReads-1) {
				t.Fatalf("reads=%d retries=%d, want %d reads", reads, e.stats.Retries, c.wantReads)
			}
		})
	}
}
