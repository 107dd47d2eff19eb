package workload

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// collectOnline submits every query of b to the engine and returns the
// delivered results keyed by ID, failing the test on lost or
// duplicated deliveries.
func collectOnline(t *testing.T, e *OnlineEngine, b *batch) map[string]OnlineResult {
	t.Helper()
	chans := make(map[string]<-chan OnlineResult, len(b.queries))
	for _, q := range b.queries {
		ch, err := e.Submit(OnlineQuery{Query: q})
		if err != nil {
			t.Fatalf("submit %s: %v", q.ID, err)
		}
		chans[q.ID] = ch
	}
	out := make(map[string]OnlineResult, len(chans))
	for id, ch := range chans {
		res, ok := <-ch
		if !ok {
			t.Fatalf("query %s: channel closed without a result", id)
		}
		if res.ID != id {
			t.Fatalf("query %s: got result for %s", id, res.ID)
		}
		if _, dup := out[id]; dup {
			t.Fatalf("query %s: duplicate result", id)
		}
		out[id] = res
		if _, again := <-ch; again {
			t.Fatalf("query %s: second result delivered", id)
		}
	}
	return out
}

// TestOnlineMatchesBatch is the online half of the equivalence oracle:
// the same nine queries served by the resident engine must produce the
// same cardinalities and output hashes as a one-shot batch run, under
// every policy.
func TestOnlineMatchesBatch(t *testing.T) {
	for _, policy := range []Policy{FIFO, MountAware, SharedScan} {
		t.Run(policy.String(), func(t *testing.T) {
			ref := runBuilt(t, makeSharingBatch(t, policy, 64))
			refByID := make(map[string]QueryResult)
			for _, qr := range ref.Queries {
				refByID[qr.ID] = qr
			}

			b := makeSharingBatch(t, policy, 64)
			cfg := OnlineConfig{Config: b.cfg}
			e, err := StartOnline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			results := collectOnline(t, e, b)
			if err := e.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}

			for id, res := range results {
				if res.Failed {
					t.Fatalf("query %s failed online: %s", id, res.Reason)
				}
				if want := b.expect[id]; res.Matches != want {
					t.Errorf("query %s: %d matches online, want %d", id, res.Matches, want)
				}
				refQR, ok := refByID[id]
				if !ok {
					t.Fatalf("query %s missing from batch reference", id)
				}
				if res.OutputHash == 0 || refQR.OutputHash == 0 {
					t.Fatalf("query %s: zero output hash (online %#x, batch %#x)", id, res.OutputHash, refQR.OutputHash)
				}
				if res.OutputHash != refQR.OutputHash {
					t.Errorf("query %s: online hash %#x != batch hash %#x", id, res.OutputHash, refQR.OutputHash)
				}
			}
			st := e.Stats()
			if st.Served != int64(len(results)) {
				t.Errorf("stats served = %d, want %d", st.Served, len(results))
			}
			if st.Queued != 0 || st.InFlight != 0 {
				t.Errorf("drained engine still has queued=%d inflight=%d", st.Queued, st.InFlight)
			}
		})
	}
}

// TestOnlineSharedMerge pins the merge window: the same-S queries
// submitted together under shared-scan ride one shared pass.
func TestOnlineSharedMerge(t *testing.T) {
	b := makeSharingBatch(t, SharedScan, 0)
	// Keep only the four queries over S1's relation (q0, q2, q4, q6).
	var same []Query
	for _, q := range b.queries {
		if q.S == b.queries[0].S {
			same = append(same, q)
		}
	}
	if len(same) < 3 {
		t.Fatalf("batch fixture lost its same-S run: %d", len(same))
	}
	e, err := StartOnline(OnlineConfig{
		Config:      b.cfg,
		MergeWindow: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan OnlineResult
	for _, q := range same {
		ch, err := e.Submit(OnlineQuery{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	shared := 0
	for i, ch := range chans {
		res := <-ch
		if res.Failed {
			t.Fatalf("query %d failed: %s", i, res.Reason)
		}
		if res.Shared {
			shared++
		}
		if want := b.expect[res.ID]; res.Matches != want {
			t.Errorf("query %s: %d matches, want %d", res.ID, res.Matches, want)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if shared < 2 {
		t.Errorf("merge window fused %d riders, want >= 2", shared)
	}
	if st := e.Stats(); st.SharedPasses < 1 {
		t.Errorf("SharedPasses = %d, want >= 1", st.SharedPasses)
	}
}

// TestOnlineDeadlineExpiry pins the typed deadline reason: a query
// whose deadline has already passed fails without occupying a drive.
func TestOnlineDeadlineExpiry(t *testing.T) {
	b := makeBatch(t, FIFO, 0)
	e, err := StartOnline(OnlineConfig{Config: b.cfg})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Submit(OnlineQuery{
		Query:    b.queries[0],
		Deadline: time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if !res.Failed {
		t.Fatalf("expired query served: %+v", res)
	}
	if !strings.HasPrefix(res.Reason, ReasonDeadline+":") {
		t.Errorf("reason %q lacks typed prefix %q", res.Reason, ReasonDeadline)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Expired != 1 {
		t.Errorf("Expired = %d, want 1", st.Expired)
	}
}

// TestOnlinePriority: a high-priority arrival overtakes a queued
// default-priority one.
func TestOnlinePriority(t *testing.T) {
	b := makeBatch(t, FIFO, 0)
	e, err := StartOnline(OnlineConfig{Config: b.cfg})
	if err != nil {
		t.Fatal(err)
	}
	// The first submission may begin service immediately; the two that
	// follow are queued behind it, and the high-priority one must start
	// first regardless of submission order.
	chFirst, err := e.Submit(OnlineQuery{Query: b.queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	qLow, qHigh := b.queries[1], b.queries[2]
	qLow.ID, qHigh.ID = "low", "high"
	chLow, err := e.Submit(OnlineQuery{Query: qLow})
	if err != nil {
		t.Fatal(err)
	}
	chHigh, err := e.Submit(OnlineQuery{Query: qHigh, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	<-chFirst
	low, high := <-chLow, <-chHigh
	if low.Failed || high.Failed {
		t.Fatalf("unexpected failures: low=%q high=%q", low.Reason, high.Reason)
	}
	if high.Started.After(low.Started) {
		t.Errorf("high-priority query started %v after the low-priority one", high.Started.Sub(low.Started))
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineDrainRejects pins ErrDraining and double-Drain safety.
func TestOnlineDrainRejects(t *testing.T) {
	b := makeBatch(t, MountAware, 0)
	e, err := StartOnline(OnlineConfig{Config: b.cfg})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Submit(OnlineQuery{Query: b.queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Failed {
		t.Fatalf("pre-drain query failed: %s", res.Reason)
	}
	if _, err := e.Submit(OnlineQuery{Query: b.queries[1]}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error = %v, want ErrDraining", err)
	}
	if err := e.Drain(); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestOnlineAtZeroEqualsBatch queues a batch fixture on a resident
// engine before its first pick: the engine, not draining, must serve it
// exactly as Run does — the same schedule log line for line and the
// same result for every query.
func TestOnlineAtZeroEqualsBatch(t *testing.T) {
	builds := map[string]func(*testing.T, Policy, int64) *batch{
		"sharing": makeSharingBatch, "mixed": makeMixedBatch,
	}
	for name, build := range builds {
		for _, policy := range []Policy{FIFO, MountAware, SharedScan} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				b := build(t, policy, 32)
				ref, err := Run(b.cfg, b.queries)
				if err != nil {
					t.Fatal(err)
				}
				b = build(t, policy, 32)
				e, err := newEngine(OnlineConfig{Config: b.cfg}, onlineLogLines)
				if err != nil {
					t.Fatal(err)
				}
				var pending []*pendingQ
				e.mu.Lock()
				for _, q := range b.queries {
					pending = append(pending, e.enqueueLocked(OnlineQuery{Query: q}))
				}
				e.mu.Unlock()
				e.start()
				for i, pq := range pending {
					if got := (<-pq.ch).QueryResult; !reflect.DeepEqual(got, ref.Queries[i]) {
						t.Errorf("query %s online:\n %+v\nbatch:\n %+v", pq.q.ID, got, ref.Queries[i])
					}
				}
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
				if got, want := strings.Join(e.out.Schedule, "\n"), strings.Join(ref.Schedule, "\n"); got != want {
					t.Errorf("schedule logs differ:\n--- online\n%s\n--- batch\n%s", got, want)
				}
			})
		}
	}
}
