package service

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/join"
	"repro/internal/relation"
	"repro/internal/tape"
	"repro/internal/workload"
)

// TestServiceStopAfterWire pins the stop_after wire contract: a
// LIMIT-n request delivers exactly n pairs, the result line reports
// stopped with a first-tuple stamp, and the same cut-off works without
// streaming. A negative stop_after is a 400.
func TestServiceStopAfterWire(t *testing.T) {
	f := makeFixture(t, workload.FIFO)
	s, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	base = "http://" + base

	const n = 5
	if total := f.expect["R1|S1"]; total <= n {
		t.Fatalf("fixture has %d matches, need > %d", total, n)
	}

	code, pairs, res := postJoin(t, base, Request{ID: "sa", R: "R1", S: "S1", Stream: true, StopAfter: n})
	if code != http.StatusOK || res.Failed {
		t.Fatalf("status %d, failed=%v (%s)", code, res.Failed, res.Reason)
	}
	if !res.Stopped {
		t.Error("result not marked stopped")
	}
	if res.Matches != n || int64(len(pairs)) != n {
		t.Errorf("matches=%d, %d pairs streamed, want exactly %d", res.Matches, len(pairs), n)
	}
	if res.FirstTupleMS <= 0 {
		t.Errorf("first_tuple_ms = %v, want > 0", res.FirstTupleMS)
	}

	// Same cut-off, no stream: the join still stops on the device side.
	code2, pairs2, res2 := postJoin(t, base, Request{R: "R1", S: "S1", StopAfter: n})
	if code2 != http.StatusOK || res2.Failed {
		t.Fatalf("unstreamed: status %d, failed=%v", code2, res2 != nil && res2.Failed)
	}
	if res2.Matches != n || !res2.Stopped || len(pairs2) != 0 {
		t.Errorf("unstreamed: matches=%d stopped=%v pairs=%d, want %d/true/0",
			res2.Matches, res2.Stopped, len(pairs2), n)
	}

	resp, err := http.Post(base+"/join", "application/json",
		strings.NewReader(`{"r":"R1","s":"S1","stop_after":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative stop_after: status %d, want 400", resp.StatusCode)
	}
}

// TestServiceClientCancelStopsDeviceWork covers the mid-flight client
// disconnect: a streamed query whose connection dies is cancelled
// through its sink's satisfied flag, so the engine serves it with far
// fewer tape reads than a full run — the drives stop working for a
// client that went away, while other tenants' queries are untouched.
func TestServiceClientCancelStopsDeviceWork(t *testing.T) {
	// A larger S than the shared fixture so the hold query keeps the
	// engine busy long enough for the cancellation to land in queue.
	mS := tape.NewMedia("S1", 4096)
	mR := tape.NewMedia("RA", 4096)
	rS, err := relation.WriteToTape(relation.Config{
		Name: "S1", Tag: 100, Blocks: 1024, TuplesPerBlock: 4,
		KeySpace: 200, PayloadBytes: 8, Seed: 1,
	}, mS)
	if err != nil {
		t.Fatal(err)
	}
	rR, err := relation.WriteToTape(relation.Config{
		Name: "R1", Tag: 1, Blocks: 16, TuplesPerBlock: 4,
		KeySpace: 200, PayloadBytes: 8, Seed: 11,
	}, mR)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Engine: workload.OnlineConfig{
			Config: workload.Config{
				Resources: join.Resources{
					MemoryBlocks: 20,
					DiskBlocks:   2048,
					NumDisks:     2,
					DiskRate:     2 * tape.Ideal().EffectiveRate(),
					Tape:         tape.Ideal(),
					IOChunk:      8,
				},
				Policy:    workload.FIFO,
				MountTime: 30 * time.Second,
			},
		},
		Catalog: map[string]*relation.Relation{"S1": rS, "R1": rR},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	base = "http://" + base

	waitServed := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for s.Stats().Engine.Served < n {
			if time.Now().After(deadline) {
				t.Fatalf("engine served %d of %d queries", s.Stats().Engine.Served, n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Reference: one full run's tape traffic.
	if code, _, res := postJoin(t, base, Request{ID: "full", R: "R1", S: "S1", Stream: true}); code != 200 || res.Failed {
		t.Fatalf("full run: %d %v", code, res)
	}
	waitServed(1)
	fullRead := s.Stats().Engine.TapeBlocksRead

	// Hold the FIFO engine with a second full query, then submit the
	// victim behind it and kill its connection immediately: the cancel
	// flips the sink while the victim is still queued, so its run stops
	// at the first poll.
	holdDone := make(chan struct{})
	go func() {
		defer close(holdDone)
		postJoin(t, base, Request{ID: "hold", R: "R1", S: "S1"})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Accepted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("hold query never accepted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	body := strings.NewReader(`{"id":"victim","r":"R1","s":"S1","stream":true}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/join", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The handler has enqueued the query and written the accepted line by
	// the time the response headers arrive; cancelling now reaches its
	// context watcher while the victim is still behind the hold query.
	cancel()
	resp.Body.Close()

	<-holdDone
	waitServed(3)

	totalRead := s.Stats().Engine.TapeBlocksRead
	victimRead := totalRead - 2*fullRead
	if victimRead >= fullRead {
		t.Errorf("cancelled query read %d tape blocks, full run reads %d; cancellation saved no device work",
			victimRead, fullRead)
	}
	if out := s.Stats().Outstanding; len(out) != 0 {
		t.Errorf("outstanding queries leaked: %v", out)
	}

	// The daemon is still healthy for the next tenant.
	if code, _, res := postJoin(t, base, Request{ID: "after", R: "R1", S: "S1"}); code != 200 || res.Failed {
		t.Fatalf("post-cancel query: %d %v", code, res)
	}
}

// TestStreamSinkKeepsNothingFromEmit enforces the join.Sink lifetime
// rule on the service's sink: pairs delivered from scratch memory that
// is overwritten right after each Emit leave the same digest, counts
// and streamed keys as pairs delivered from stable memory.
func TestStreamSinkKeepsNothingFromEmit(t *testing.T) {
	feed := func(transient bool) (join.CountSink, [][2]uint64, int64) {
		s := &streamSink{ch: make(chan [2]uint64, 8)}
		for i := 0; i < 12; i++ {
			rp, sp := []byte{byte(i), 1, 2}, []byte{byte(i), 9}
			if transient {
				buf := append(append([]byte(nil), rp...), sp...)
				rp, sp = buf[:len(rp)], buf[len(rp):]
				s.Emit(nil, block.Tuple{Key: uint64(i), Payload: rp}, block.Tuple{Key: uint64(i), Payload: sp})
				for j := range buf {
					buf[j] = 0xA5
				}
				continue
			}
			s.Emit(nil, block.Tuple{Key: uint64(i), Payload: rp}, block.Tuple{Key: uint64(i), Payload: sp})
		}
		close(s.ch)
		var keys [][2]uint64
		for k := range s.ch {
			keys = append(keys, k)
		}
		return s.CountSink, keys, s.dropped
	}
	wantSink, wantKeys, wantDropped := feed(false)
	gotSink, gotKeys, gotDropped := feed(true)
	if gotSink != wantSink || gotDropped != wantDropped || len(gotKeys) != len(wantKeys) {
		t.Fatalf("transient feed: %+v, %d streamed, %d dropped; stable feed: %+v, %d, %d",
			gotSink, len(gotKeys), gotDropped, wantSink, len(wantKeys), wantDropped)
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("streamed pair %d = %v, want %v", i, gotKeys[i], wantKeys[i])
		}
	}
}
