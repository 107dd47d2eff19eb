package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/obs/obsserver"
	"repro/internal/relation"
	"repro/internal/tape"
	"repro/internal/workload"
)

// fixture is a small catalog on fresh media plus the daemon config
// over it: two S cartridges, one R cartridge, four relations.
type fixture struct {
	cfg    Config
	expect map[string]int64 // "R|S" -> exact cardinality
}

func makeFixture(t *testing.T, policy workload.Policy) *fixture {
	t.Helper()
	mS1 := tape.NewMedia("S1", 4096)
	mS2 := tape.NewMedia("S2", 4096)
	mR := tape.NewMedia("RA", 4096)
	rel := func(name string, tag byte, blocks, seed int64, m tape.Medium) *relation.Relation {
		t.Helper()
		r, err := relation.WriteToTape(relation.Config{
			Name: name, Tag: tag, Blocks: blocks, TuplesPerBlock: 4,
			KeySpace: 200, PayloadBytes: 8, Seed: seed,
		}, m)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cat := map[string]*relation.Relation{
		"S1": rel("S1", 100, 96, 1, mS1),
		"S2": rel("S2", 101, 96, 2, mS2),
		"R1": rel("R1", 1, 16, 11, mR),
		"R2": rel("R2", 2, 16, 12, mR),
	}
	f := &fixture{expect: make(map[string]int64)}
	for _, rn := range []string{"R1", "R2"} {
		for _, sn := range []string{"S1", "S2"} {
			f.expect[rn+"|"+sn] = relation.ExpectedMatches(cat[rn], cat[sn])
		}
	}
	f.cfg = Config{
		Engine: workload.OnlineConfig{
			Config: workload.Config{
				Resources: join.Resources{
					MemoryBlocks: 20,
					DiskBlocks:   400,
					NumDisks:     2,
					DiskRate:     2 * tape.Ideal().EffectiveRate(),
					Tape:         tape.Ideal(),
					IOChunk:      8,
				},
				Policy:    policy,
				MountTime: 30 * time.Second,
			},
		},
		Catalog: cat,
	}
	return f
}

// postJoin POSTs one request and returns the parsed response lines.
func postJoin(t *testing.T, base string, req Request) (int, []PairLine, *ResultLine) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var pairs []PairLine
	var res *ResultLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch kind.Type {
		case "pair":
			var p PairLine
			json.Unmarshal(sc.Bytes(), &p)
			pairs = append(pairs, p)
		case "result":
			if res != nil {
				t.Fatal("second result line")
			}
			res = &ResultLine{}
			if err := json.Unmarshal(sc.Bytes(), res); err != nil {
				t.Fatal(err)
			}
		}
	}
	if res == nil {
		t.Fatal("no result line")
	}
	return resp.StatusCode, pairs, res
}

// TestServiceRoundTrip serves one streamed query end to end: accepted
// line, every pair streamed, result line with the exact cardinality.
func TestServiceRoundTrip(t *testing.T) {
	f := makeFixture(t, workload.MountAware)
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

	code, pairs, res := postJoin(t, base, Request{ID: "rt1", R: "R1", S: "S1", Stream: true})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.Failed {
		t.Fatalf("query failed: %s", res.Reason)
	}
	want := f.expect["R1|S1"]
	if res.Matches != want {
		t.Errorf("matches = %d, want %d", res.Matches, want)
	}
	if int64(len(pairs)) != want || res.Streamed != want || res.StreamDropped != 0 {
		t.Errorf("streamed %d pairs (reported %d, dropped %d), want %d",
			len(pairs), res.Streamed, res.StreamDropped, want)
	}
	if res.OutputHash == fmt.Sprintf("%016x", 0) {
		t.Error("zero output hash")
	}
	if res.ID != "rt1" {
		t.Errorf("result ID %q", res.ID)
	}

	// Unstreamed query over the same pair: same count, same hash.
	code2, pairs2, res2 := postJoin(t, base, Request{R: "R1", S: "S1"})
	if code2 != http.StatusOK || res2.Failed {
		t.Fatalf("unstreamed query: status %d, failed=%v", code2, res2 != nil && res2.Failed)
	}
	if len(pairs2) != 0 {
		t.Errorf("unstreamed query leaked %d pair lines", len(pairs2))
	}
	if res2.OutputHash != res.OutputHash {
		t.Errorf("hash %s != %s across stream modes", res2.OutputHash, res.OutputHash)
	}
}

// TestServiceRejections pins the typed HTTP error contract: strict
// decode (400), unknown relation (404), quota (429), draining (503),
// and that /stats accounts for each kind.
func TestServiceRejections(t *testing.T) {
	f := makeFixture(t, workload.FIFO)
	f.cfg.TenantQuota = 2
	s, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base = "http://" + base

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb.Error
	}

	if code, msg := post(`{"r":"R1","s":"S1","nope":1}`); code != http.StatusBadRequest ||
		!strings.HasPrefix(msg, ReasonBadRequest+":") {
		t.Errorf("unknown field: %d %q", code, msg)
	}
	if code, msg := post(`{"r":"R1"}`); code != http.StatusBadRequest ||
		!strings.HasPrefix(msg, ReasonBadRequest+":") {
		t.Errorf("missing s: %d %q", code, msg)
	}
	if code, msg := post(`{"r":"R1","s":"NOSUCH"}`); code != http.StatusNotFound ||
		!strings.HasPrefix(msg, ReasonUnknownRelation+":") {
		t.Errorf("unknown relation: %d %q", code, msg)
	}

	// Quota: pre-load the tenant's outstanding count to the cap; the
	// next request must bounce without touching the engine.
	s.mu.Lock()
	s.outstanding["t1"] = 2
	s.mu.Unlock()
	if code, msg := post(`{"r":"R1","s":"S1","tenant":"t1"}`); code != http.StatusTooManyRequests ||
		!strings.HasPrefix(msg, ReasonQuota+":") {
		t.Errorf("quota: %d %q", code, msg)
	}
	s.mu.Lock()
	delete(s.outstanding, "t1")
	s.draining = true
	s.mu.Unlock()
	if code, msg := post(`{"r":"R1","s":"S1"}`); code != http.StatusServiceUnavailable ||
		!strings.HasPrefix(msg, ReasonDraining+":") {
		t.Errorf("draining: %d %q", code, msg)
	}
	s.mu.Lock()
	s.draining = false
	s.mu.Unlock()

	st := s.Stats()
	for _, kind := range []string{ReasonBadRequest, ReasonUnknownRelation, ReasonQuota, ReasonDraining} {
		if st.Rejected[kind] == 0 {
			t.Errorf("stats missing rejected[%s]", kind)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// Post-drain: the listener is down; a second Drain is a no-op.
	if err := s.Drain(); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestServiceEndpoints covers /relations, /stats and the mounted obs
// routes while the daemon is live.
func TestServiceEndpoints(t *testing.T) {
	f := makeFixture(t, workload.SharedScan)
	f.cfg.Obs = obsserver.New()
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

	rows, err := FetchRelations(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("relations: %d rows, want 4", len(rows))
	}
	rNames, sNames := SplitCatalog(rows)
	if len(rNames) != 2 || len(sNames) != 2 {
		t.Fatalf("split: R=%v S=%v", rNames, sNames)
	}

	if code, _, res := postJoin(t, base, Request{R: rNames[0], S: sNames[0]}); code != 200 || res.Failed {
		t.Fatalf("join via discovered catalog failed: %d %v", code, res)
	}

	st, err := FetchStats(base)
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy != "shared-scan" || st.Accepted != 1 || st.Engine.Served != 1 {
		t.Errorf("stats: policy=%q accepted=%d served=%d", st.Policy, st.Accepted, st.Engine.Served)
	}

	for _, path := range []string{"/metrics", "/health", "/flight"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestServiceDeadline pins the wire path of the engine's deadline
// expiry: an already-expired deadline yields a 200 with a typed failed
// result, not an HTTP error.
func TestServiceDeadline(t *testing.T) {
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

	// Hold the scheduler with a slow-ish first query, then submit one
	// with a 1 ms deadline: it expires in queue.
	first := make(chan struct{})
	go func() {
		postJoin(t, base, Request{ID: "hold", R: "R1", S: "S1"})
		close(first)
	}()
	code, _, res := postJoin(t, base, Request{ID: "dl", R: "R2", S: "S2", DeadlineMS: 1})
	<-first
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.Failed && !strings.HasPrefix(res.Reason, workload.ReasonDeadline+":") {
		t.Errorf("failed with untyped reason %q", res.Reason)
	}
}

// TestStatsWireKeysPinned pins the key set of the GET /stats document,
// engine snapshot included: the wire names are a contract with every
// client, whatever Go types carry them.
func TestStatsWireKeysPinned(t *testing.T) {
	f := makeFixture(t, workload.MountAware)
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
	if code, _, res := postJoin(t, base, Request{R: "R1", S: "S1"}); code != 200 || res.Failed {
		t.Fatalf("join failed: %d %v", code, res)
	}
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]any) string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	engine, ok := doc["engine"].(map[string]any)
	if !ok {
		t.Fatalf("stats document has no engine object: %v", doc)
	}
	for _, c := range []struct{ name, got, want string }{
		{"stats", keys(doc), "accepted draining engine outstanding policy rejected"},
		{"engine", keys(engine), "CacheEvictions CacheHits CacheMisses Demotions DiskHighWater Expired Failed InFlight " +
			"Mounts Queued RMounts Requeues SMounts ScheduleDropped ScheduleTail Served SharedPasses SharedRiders " +
			"TapeBlocksRead TapeBlocksWritten VirtualNow"},
	} {
		if c.got != c.want {
			t.Errorf("%s keys:\n got  %s\n want %s", c.name, c.got, c.want)
		}
	}
}

// TestDrainPromptAfterReplay drains the daemon right after a 500-client
// replay. Drain waits in http.Server.Shutdown for every connection to
// go idle, and a connection the replay's transport dialed but never
// used counts as active until it is 5 s old: Replay must close its idle
// connections before it returns.
func TestDrainPromptAfterReplay(t *testing.T) {
	f := makeFixture(t, workload.MountAware)
	s, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reqs := GenLoad(LoadSpec{Seed: 3, Queries: 500}, []string{"R1", "R2"}, []string{"S1", "S2"})
	rep := Replay("http://"+base, 500, reqs)
	if rep.OK != len(reqs) {
		t.Fatalf("replay: %d of %d ok", rep.OK, len(reqs))
	}
	start := time.Now()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Drain took %v after the replay, want < 2s", took)
	}
}
