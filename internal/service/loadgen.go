package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the daemon's proof harness: a deterministic seeded load
// generator and a concurrent replay client. GenLoad expands a LoadSpec
// into a reproducible query list; Replay drives it through hundreds of
// concurrent clients against a live daemon, verifying the service
// contract on the wire — every accepted query gets exactly one result
// line, none are lost, none are duplicated — and reporting wall-clock
// latency percentiles. Mount churn and shared-pass counts come from
// FetchStats, so a driver can put fifo, mount-aware and shared-scan
// side by side (see tapejoin load and the root service load test).

// LoadSpec describes a deterministic workload.
type LoadSpec struct {
	// Seed fixes the generated sequence.
	Seed int64
	// Queries is the total number of queries.
	Queries int
	// Tenants spreads queries across this many tenant labels
	// (default 1).
	Tenants int
	// PriorityLevels draws priorities from [0, PriorityLevels)
	// (0 or 1 = all default priority).
	PriorityLevels int
	// StreamEvery marks every Nth query for pair streaming (0 = none).
	StreamEvery int
	// DeadlineMS applies this service deadline to every query
	// (0 = none).
	DeadlineMS int64
	// StopAfter, when positive, turns every query into a true LIMIT-n:
	// the daemon stops each join after this many pairs. Stop-after
	// queries are forced onto the stream so the replay can observe the
	// wall time to the first delivered pair.
	StopAfter int64
}

// GenLoad expands the spec into queries over the named relations. The
// same spec and name lists always produce the same queries, so a
// replay is comparable across policies and runs.
func GenLoad(spec LoadSpec, rNames, sNames []string) []Request {
	rng := rand.New(rand.NewSource(spec.Seed))
	tenants := spec.Tenants
	if tenants < 1 {
		tenants = 1
	}
	out := make([]Request, spec.Queries)
	for i := range out {
		req := Request{
			ID:         fmt.Sprintf("L%d", i),
			Tenant:     fmt.Sprintf("t%d", rng.Intn(tenants)),
			R:          rNames[rng.Intn(len(rNames))],
			S:          sNames[rng.Intn(len(sNames))],
			DeadlineMS: spec.DeadlineMS,
		}
		if spec.PriorityLevels > 1 {
			req.Priority = rng.Intn(spec.PriorityLevels)
		}
		if spec.StreamEvery > 0 && i%spec.StreamEvery == 0 {
			req.Stream = true
		}
		if spec.StopAfter > 0 {
			req.StopAfter = spec.StopAfter
			req.Stream = true
		}
		out[i] = req
	}
	return out
}

// Outcome is one replayed query's observed result.
type Outcome struct {
	ID         string
	Tenant     string
	Failed     bool
	Reason     string
	Shared     bool
	CacheHit   bool
	Matches    int64
	OutputHash string
	Streamed   int64
	Dropped    int64
	Stopped    bool
	Latency    time.Duration
	// FirstPair is the wall time from POST to the first streamed pair
	// line (0 when the query streamed nothing) — the wire-level
	// time-to-first-tuple a stop-after replay reports on.
	FirstPair time.Duration
	// Results counts result lines received — anything but 1 is a
	// protocol violation.
	Results int
	// Err records a transport- or protocol-level failure ("" = clean).
	Err string
}

// Report is one replay run's aggregate.
type Report struct {
	// Outcomes holds one entry per query, keyed by ID.
	Outcomes map[string]*Outcome
	// Wall is the whole replay's duration; Clients the concurrency.
	Wall    time.Duration
	Clients int
	// Sent, OK, Failed and Broken partition the queries: Failed means
	// a well-formed failure result, Broken a transport/protocol error.
	Sent, OK, Failed, Broken int
	// P50, P90, P99 and Max summarize clean queries' wall latency.
	P50, P90, P99, Max time.Duration
	// FirstPairs counts queries that streamed at least one pair;
	// FP50 and FP99 summarize their wall time to that first pair.
	FirstPairs int
	FP50, FP99 time.Duration
}

// Replay drives the queries through `clients` concurrent connections
// against the daemon at baseURL, client i taking queries i, i+clients,
// i+2·clients, … Every query is accounted for in the report exactly
// once; lost or duplicated result lines surface as Broken outcomes.
func Replay(baseURL string, clients int, queries []Request) *Report {
	if clients < 1 {
		clients = 1
	}
	if clients > len(queries) && len(queries) > 0 {
		clients = len(queries)
	}
	rep := &Report{
		Outcomes: make(map[string]*Outcome, len(queries)),
		Clients:  clients,
		Sent:     len(queries),
	}
	httpc := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		},
	}
	outcomes := make([]*Outcome, len(queries))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(queries); i += clients {
				outcomes[i] = replayOne(httpc, baseURL, queries[i])
			}
		}(c)
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	// A connection the transport dialed but never used would hold the
	// daemon's graceful shutdown until it is 5 s old.
	httpc.CloseIdleConnections()

	var lats, firsts []time.Duration
	for _, o := range outcomes {
		rep.Outcomes[o.ID] = o
		switch {
		case o.Err != "":
			rep.Broken++
		case o.Failed:
			rep.Failed++
		default:
			rep.OK++
		}
		if o.Err == "" {
			lats = append(lats, o.Latency)
			if o.FirstPair > 0 {
				firsts = append(firsts, o.FirstPair)
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		pct := func(q float64) time.Duration { return lats[int(q*float64(n-1))] }
		rep.P50, rep.P90, rep.P99, rep.Max = pct(0.50), pct(0.90), pct(0.99), lats[n-1]
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	if n := len(firsts); n > 0 {
		pct := func(q float64) time.Duration { return firsts[int(q*float64(n-1))] }
		rep.FirstPairs, rep.FP50, rep.FP99 = n, pct(0.50), pct(0.99)
	}
	return rep
}

// replayOne POSTs one query and consumes its JSONL response.
func replayOne(httpc *http.Client, baseURL string, q Request) *Outcome {
	o := &Outcome{ID: q.ID, Tenant: q.Tenant}
	body, err := json.Marshal(q)
	if err != nil {
		o.Err = "marshal: " + err.Error()
		return o
	}
	start := time.Now()
	resp, err := httpc.Post(baseURL+"/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		o.Err = "post: " + err.Error()
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		o.Err = fmt.Sprintf("http %d: %s", resp.StatusCode, eb.Error)
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			o.Err = "bad line: " + err.Error()
			return o
		}
		switch kind.Type {
		case "accepted":
			// informational
		case "pair":
			if o.Streamed == 0 {
				o.FirstPair = time.Since(start)
			}
			o.Streamed++
		case "result":
			var res ResultLine
			if err := json.Unmarshal(line, &res); err != nil {
				o.Err = "bad result: " + err.Error()
				return o
			}
			if o.Results++; o.Results == 1 {
				o.Latency = time.Since(start)
				o.Failed, o.Reason = res.Failed, res.Reason
				o.Shared, o.CacheHit = res.Shared, res.CacheHit
				o.Matches, o.OutputHash = res.Matches, res.OutputHash
				o.Dropped = res.StreamDropped
				o.Stopped = res.Stopped
				if res.ID != q.ID {
					o.Err = fmt.Sprintf("result for %q, want %q", res.ID, q.ID)
				}
			}
		default:
			o.Err = "unknown line type " + kind.Type
			return o
		}
	}
	if err := sc.Err(); err != nil && o.Err == "" {
		o.Err = "read: " + err.Error()
	}
	if o.Results != 1 && o.Err == "" {
		o.Err = fmt.Sprintf("%d result lines, want 1", o.Results)
	}
	return o
}

// Summary renders the report for logs: one line of counts, one of
// latency percentiles, and — when any query streamed pairs — one of
// time-to-first-pair percentiles.
func (r *Report) Summary() string {
	s := fmt.Sprintf(
		"sent=%d ok=%d failed=%d broken=%d clients=%d wall=%v\nlatency p50=%v p90=%v p99=%v max=%v",
		r.Sent, r.OK, r.Failed, r.Broken, r.Clients, r.Wall.Round(time.Millisecond),
		r.P50.Round(time.Millisecond), r.P90.Round(time.Millisecond),
		r.P99.Round(time.Millisecond), r.Max.Round(time.Millisecond))
	if r.FirstPairs > 0 {
		s += fmt.Sprintf("\nfirst-pair p50=%v p99=%v (over %d streamed queries)",
			r.FP50.Round(time.Millisecond), r.FP99.Round(time.Millisecond), r.FirstPairs)
	}
	return s
}

// FetchStats scrapes GET /stats.
func FetchStats(baseURL string) (*StatsBody, error) {
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st StatsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats decode: %w", err)
	}
	return &st, nil
}

// FetchRelations scrapes GET /relations.
func FetchRelations(baseURL string) ([]RelationInfo, error) {
	resp, err := http.Get(baseURL + "/relations")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rows []RelationInfo
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("relations decode: %w", err)
	}
	return rows, nil
}

// SplitCatalog partitions a catalog listing into R-side (smaller) and
// S-side (larger) relation names by block count — the heuristic for
// generated datasets, where the build relations are strictly smaller
// than the probe relations. Relations on the boundary go to the R
// side; if every relation is the same size the split is by media, so
// both sides are always non-empty for any catalog with two media.
func SplitCatalog(rows []RelationInfo) (rNames, sNames []string) {
	if len(rows) == 0 {
		return nil, nil
	}
	min, max := rows[0].Blocks, rows[0].Blocks
	for _, row := range rows {
		if row.Blocks < min {
			min = row.Blocks
		}
		if row.Blocks > max {
			max = row.Blocks
		}
	}
	if min == max {
		media := rows[0].Media
		for _, row := range rows {
			if row.Media == media {
				rNames = append(rNames, row.Name)
			} else {
				sNames = append(sNames, row.Name)
			}
		}
		return rNames, sNames
	}
	mid := (min + max) / 2
	for _, row := range rows {
		if row.Blocks <= mid {
			rNames = append(rNames, row.Name)
		} else {
			sNames = append(sNames, row.Name)
		}
	}
	return rNames, sNames
}
