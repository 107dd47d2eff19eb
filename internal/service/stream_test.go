package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/join"
	"repro/internal/relation"
	"repro/internal/sim"
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

// gateSink is a CountSink whose Emit waits for gate to close: it holds
// the scheduler proc, and so every query queued behind it, mid-run.
type gateSink struct {
	join.CountSink
	gate <-chan struct{}
}

// Emit implements join.Sink.
func (g *gateSink) Emit(p *sim.Proc, r, s block.Tuple) {
	<-g.gate
	g.CountSink.Emit(p, r, s)
}

// TestServiceClientCancelStopsDeviceWork covers the mid-flight client
// disconnect: a streamed query whose connection dies is cancelled
// through its sink's satisfied flag, so the engine serves it with far
// fewer tape reads than a full run — the drives stop working for a
// client that went away, while other tenants' queries are untouched.
func TestServiceClientCancelStopsDeviceWork(t *testing.T) {
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
	victimCancelled := make(chan struct{})
	s.cancelled = func(id string) {
		if id == "victim" {
			close(victimCancelled)
		}
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

	// Hold the FIFO engine with a second full query whose sink blocks
	// the scheduler at its first pair, then submit the victim behind it
	// and kill its connection. The hold is released only once the
	// server has cancelled the victim, so the victim's run starts with
	// its sink already satisfied and stops at the first poll.
	gate := make(chan struct{})
	holdDone, err := s.eng.Submit(workload.OnlineQuery{Query: workload.Query{
		ID: "hold", R: rR, S: rS, Sink: &gateSink{gate: gate},
	}})
	if err != nil {
		t.Fatal(err)
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
	select {
	case <-victimCancelled:
	case <-time.After(30 * time.Second):
		close(gate)
		t.Fatal("server never cancelled the disconnected victim")
	}
	close(gate)

	if res := <-holdDone; res.Failed {
		t.Fatalf("hold query failed: %s", res.Reason)
	}
	waitServed(3)

	totalRead := s.Stats().Engine.TapeBlocksRead
	victimRead := totalRead - 2*fullRead
	if victimRead >= fullRead {
		t.Errorf("cancelled query read %d tape blocks, full run reads %d; cancellation saved no device work",
			victimRead, fullRead)
	}

	// The daemon is still healthy for the next tenant.
	if code, _, res := postJoin(t, base, Request{ID: "after", R: "R1", S: "S1"}); code != 200 || res.Failed {
		t.Fatalf("post-cancel query: %d %v", code, res)
	}
	// Drain waits for every handler, the victim's included, so its
	// quota slot must be back by then.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if out := s.Stats().Outstanding; len(out) != 0 {
		t.Errorf("outstanding queries leaked: %v", out)
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

// TestPairLineMatchesEncoder pins the hand-written pair line to what
// json.Encoder writes for the PairLine it stands for, across the key
// range.
func TestPairLineMatchesEncoder(t *testing.T) {
	keys := []uint64{0, 1, 10, 1 << 32, math.MaxUint64}
	for _, r := range keys {
		for _, s := range keys {
			var want bytes.Buffer
			err := json.NewEncoder(&want).Encode(PairLine{
				Type: "pair", R: strconv.FormatUint(r, 10), S: strconv.FormatUint(s, 10),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := appendPairLine(nil, r, s); !bytes.Equal(got, want.Bytes()) {
				t.Errorf("r=%d s=%d: line %q, encoder writes %q", r, s, got, want.Bytes())
			}
		}
	}
}
