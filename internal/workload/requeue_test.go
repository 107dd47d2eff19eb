package workload

// Device-failure containment: a query whose service dies with a
// device-class error is re-admitted once on the surviving complex, a
// failed shared pass demotes its riders to solo service, and a query
// that fails again is marked Failed with a typed reason — the batch
// always completes.

import (
	"strings"
	"testing"

	"repro/internal/device/filedev"
	"repro/internal/fault"
	"repro/internal/join"
)

// faultedBatch runs the first n queries of b with sched injected.
func faultedBatch(t *testing.T, b *batch, n int, spec string) (*batch, *BatchResult) {
	t.Helper()
	b.queries = b.queries[:n]
	sched, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	b.cfg.Resources.Faults = sched
	out, err := Run(b.cfg, b.queries)
	if err != nil {
		t.Fatalf("batch aborted: %v", err)
	}
	return b, out
}

// TestRequeueRecoversQuery injects a transient fault persistent enough
// to exhaust q0's read retries AND unit restarts (5 reads × 4 unit
// attempts = 20 firings), but spent by the time the scheduler
// re-admits the query: the requeue runs clean and delivers the exact
// join, and the rest of the batch is untouched.
func TestRequeueRecoversQuery(t *testing.T) {
	b, out := faultedBatch(t, makeBatch(t, FIFO, 0), 2, "transient=R:3:20")
	if out.Requeues != 1 {
		t.Fatalf("Requeues = %d, want 1", out.Requeues)
	}
	q0, q1 := out.Queries[0], out.Queries[1]
	if q0.Failed || !q0.Requeued {
		t.Fatalf("q0: failed=%v requeued=%v, want recovered requeue", q0.Failed, q0.Requeued)
	}
	if q0.Matches != b.expect["q0"] {
		t.Fatalf("q0 matches = %d, want %d", q0.Matches, b.expect["q0"])
	}
	if q1.Failed || q1.Requeued || q1.Matches != b.expect["q1"] {
		t.Fatalf("q1 disturbed: %+v", q1)
	}
}

// TestRequeueExhaustedFailsTyped makes the fault outlive the requeue
// too: the query must be marked Failed with the typed exhaustion
// reason — and the batch must keep going and serve the next query.
func TestRequeueExhaustedFailsTyped(t *testing.T) {
	b, out := faultedBatch(t, makeBatch(t, FIFO, 0), 2, "transient=R:3:40")
	q0, q1 := out.Queries[0], out.Queries[1]
	if !q0.Failed || !q0.Requeued {
		t.Fatalf("q0: failed=%v requeued=%v, want failed after requeue", q0.Failed, q0.Requeued)
	}
	if !strings.Contains(q0.Reason, "retries exhausted") {
		t.Fatalf("q0 reason %q lacks typed exhaustion cause", q0.Reason)
	}
	if q0.Matches != 0 {
		t.Fatalf("failed query delivered %d matches", q0.Matches)
	}
	if q1.Failed || q1.Matches != b.expect["q1"] {
		t.Fatalf("batch did not continue past failed query: %+v", q1)
	}
}

// TestDeviceFailureContainedToQuery: every device-class failure fails
// its own query, typed, and never the batch; a requeue needs recovery
// on and a failure worth one. A hard media error is not worth one, and
// with recovery off every fault fails its query at once — on the file
// backend too, whose stored corruption used to earn a requeue there.
func TestDeviceFailureContainedToQuery(t *testing.T) {
	cases := []struct {
		spec            string
		noRecover, file bool
		cause           string
	}{
		{"hard=R:3", false, false, "unrecoverable media error"},
		{"transient=R:3:1", true, false, "injected transient read error"},
		{"corrupt=R:3", true, false, "checksum mismatch"},
		{"flip=disk:3", true, true, "failed checksum verification"},
	}
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			b := makeBatch(t, FIFO, 0)
			b.cfg.Resources.DisableRecovery = c.noRecover
			if c.file {
				b.cfg.Resources.Backend = filedev.New(t.TempDir())
			}
			b, out := faultedBatch(t, b, 2, c.spec)
			if out.Requeues != 0 {
				t.Fatalf("Requeues = %d, want 0", out.Requeues)
			}
			q0 := out.Queries[0]
			if !q0.Failed || q0.Requeued || q0.Matches != 0 {
				t.Fatalf("q0: failed=%v requeued=%v matches=%d, want failed without requeue",
					q0.Failed, q0.Requeued, q0.Matches)
			}
			if !strings.HasPrefix(q0.Reason, ReasonDeviceFailed+": ") || !strings.Contains(q0.Reason, c.cause) {
				t.Fatalf("q0 reason %q, want %s: ...%s...", q0.Reason, ReasonDeviceFailed, c.cause)
			}
			for _, qr := range out.Queries[1:] {
				if !qr.Failed && qr.Matches != b.expect[qr.ID] {
					t.Fatalf("%s matches = %d, want %d", qr.ID, qr.Matches, b.expect[qr.ID])
				}
				if qr.Failed && !strings.Contains(qr.Reason, c.cause) {
					t.Fatalf("%s failed with %q", qr.ID, qr.Reason)
				}
			}
		})
	}
}

// TestSharedPassDemotesRiders fails a shared S-scan with a transient
// burst that is spent by the time the riders rerun solo: every rider
// must be demoted (Requeued), deliver its exact cardinality, and —
// because the pass's output was held, not delivered — the user-visible
// sink must see each pair exactly once.
func TestSharedPassDemotesRiders(t *testing.T) {
	b := makeSharingBatch(t, SharedScan, 0)
	sched, err := fault.Parse("transient=S:40:5")
	if err != nil {
		t.Fatal(err)
	}
	b.cfg.Resources.Faults = sched
	sinks := make(map[string]*join.CountSink)
	for i := range b.queries {
		cs := &join.CountSink{}
		sinks[b.queries[i].ID] = cs
		b.queries[i].Sink = cs
	}
	out, err := Run(b.cfg, b.queries)
	if err != nil {
		t.Fatalf("batch aborted: %v", err)
	}
	if out.Demotions == 0 {
		t.Fatal("no riders demoted despite failed shared pass")
	}
	demoted := 0
	for _, qr := range out.Queries {
		if qr.Failed {
			t.Fatalf("query %s failed: %s", qr.ID, qr.Reason)
		}
		if want := b.expect[qr.ID]; qr.Matches != want {
			t.Fatalf("%s matches = %d, want %d", qr.ID, qr.Matches, want)
		}
		// No double delivery: the real sink holds exactly the reported
		// pairs, whether the query rode a pass or was demoted.
		if got := sinks[qr.ID].Count(); got != qr.Matches {
			t.Fatalf("%s sink saw %d pairs, result reports %d", qr.ID, got, qr.Matches)
		}
		if qr.Requeued {
			demoted++
		}
	}
	if demoted != out.Demotions {
		t.Fatalf("per-query demotions %d != batch Demotions %d", demoted, out.Demotions)
	}
}

// TestPersistentFaultNeverAbortsBatch runs the whole shared-scan batch
// against an unbounded device fault: every query may fail, but each
// failure must be typed and the batch must run to completion — the
// containment guarantee.
func TestPersistentFaultNeverAbortsBatch(t *testing.T) {
	b, out := faultedBatch(t, makeSharingBatch(t, SharedScan, 0), 9, "transient=S:40:1000")
	if len(out.Queries) != len(b.queries) {
		t.Fatalf("results for %d of %d queries", len(out.Queries), len(b.queries))
	}
	for _, qr := range out.Queries {
		if !qr.Failed {
			continue
		}
		if qr.Reason == "" || !strings.Contains(qr.Reason, "retries exhausted") {
			t.Fatalf("%s failed without a typed reason: %q", qr.ID, qr.Reason)
		}
	}
}

// TestCacheFlushedWhenDiskArrayReplaced loses an S drive early in a
// cached mount-aware batch. The degrade rebuilds the session's devices,
// disk array included, so the cached R partitions stranded on the old
// array are flushed (and logged), and every query still delivers its
// exact join on the replacement complex.
func TestCacheFlushedWhenDiskArrayReplaced(t *testing.T) {
	b := makeBatch(t, MountAware, 200)
	b, out := faultedBatch(t, b, len(b.queries), "drivefail=S@60s")
	var flushes int
	for _, line := range out.Schedule {
		if strings.Contains(line, "cache flush: ") && strings.HasSuffix(line, "(disk array replaced)") {
			flushes++
		}
	}
	if flushes == 0 {
		t.Fatalf("no cache flush logged:\n%s", strings.Join(out.Schedule, "\n"))
	}
	for _, qr := range out.Queries {
		if qr.Failed {
			t.Fatalf("query %s failed: %s", qr.ID, qr.Reason)
		}
		if want := b.expect[qr.ID]; qr.Matches != want {
			t.Errorf("%s (%s): matches = %d, want %d", qr.ID, qr.Method, qr.Matches, want)
		}
	}
}
