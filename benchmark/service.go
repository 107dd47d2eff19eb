package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	tapejoin "repro"
	"repro/internal/service"
)

// ---- service-mix -------------------------------------------------------

const (
	svcSRels, svcRRels = 3, 4
	svcTenants         = 4
	svcPriorities      = 2
	svcStreamEvery     = 5
	svcStopEvery       = 7
	svcStopAfter       = 100
)

// joinRef is the reference outcome of one (R, S) pair.
type joinRef struct {
	matches int64
	hash    uint64
}

type svcQuery struct {
	body   []byte
	rs     string // "R1|S2"
	stream bool
	stop   bool
	tuples int64
}

type svcInst struct {
	ctx       *runCtx
	sys       *tapejoin.System
	svc       *tapejoin.Service
	httpc     *http.Client
	refs      map[string]joinRef
	tuples    map[string]int64
	nextRound int
	lastStats service.StatsBody
}

// catalogNames lists the relation names of the service and batch
// catalogs.
func catalogNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return out
}

// buildCatalog creates nS S relations on a cartridge each and nR R
// relations two to a cartridge, and joins every (R, S) pair once, solo,
// for the reference outputs. The cartridges have no room for a hashed
// copy, so the advisor never picks a tape-tape method and the tapes
// stay as generated from one query to the next.
func buildCatalog(ctx *runCtx, sys *tapejoin.System, nS, nR int, sMB, rMB int64, tpb int, keys uint64) (map[string]*tapejoin.Relation, map[string]joinRef, error) {
	cat := make(map[string]*tapejoin.Relation)
	mk := func(tp *tapejoin.Tape, name string, mb int64, seedIdx int) error {
		_, end := ctx.tr.begin("CreateRelation", "setup", 0)
		defer end()
		rel, err := sys.CreateRelation(tp, tapejoin.RelationConfig{
			Name: name, SizeMB: mb, TuplesPerBlock: tpb, KeySpace: keys, Seed: ctx.relSeed(seedIdx),
		})
		cat[name] = rel
		return err
	}
	for i, name := range catalogNames("S", nS) {
		tp, err := sys.NewTape("tape-"+name, sMB+2)
		if err == nil {
			err = mk(tp, name, sMB, 100+i)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	var tp *tapejoin.Tape
	for i, name := range catalogNames("R", nR) {
		var err error
		if i%2 == 0 {
			tp, err = sys.NewTape(fmt.Sprintf("tape-R%d", i/2+1), 2*rMB+2)
		}
		if err == nil {
			err = mk(tp, name, rMB, 200+i)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	refs := make(map[string]joinRef)
	for _, rn := range catalogNames("R", nR) {
		for _, sn := range catalogNames("S", nS) {
			res, err := sys.Join(tapejoin.CDTGH, cat[rn], cat[sn])
			if err != nil {
				return nil, nil, fmt.Errorf("reference join %s x %s: %w", rn, sn, err)
			}
			if want := tapejoin.ExpectedMatches(cat[rn], cat[sn]); res.Stats.Matches != want {
				return nil, nil, fmt.Errorf("reference join %s x %s: %d matches, want %d", rn, sn, res.Stats.Matches, want)
			}
			refs[rn+"|"+sn] = joinRef{res.Stats.Matches, res.Stats.OutputHash}
		}
	}
	return cat, refs, nil
}

func newService(ctx *runCtx) (instance, error) {
	sz := ctx.sz
	_, end := ctx.tr.begin("NewSystem", "setup", 0)
	sys, err := tapejoin.NewSystem(tapejoin.Config{MemoryMB: sz.svcMemMB, DiskMB: sz.svcDiskMB, Observe: ctx.observe})
	end()
	if err != nil {
		return nil, err
	}
	cat, refs, err := buildCatalog(ctx, sys, svcSRels, svcRRels, sz.svcSMB, sz.svcRMB, sz.svcTPB, sz.svcKeys)
	if err != nil {
		sys.Close()
		return nil, err
	}
	_, end = ctx.tr.begin("StartService", "setup", 0)
	svc, err := sys.StartService(tapejoin.ServiceOptions{
		Policy: tapejoin.BatchMountAware, CacheMB: sz.svcCacheMB, Catalog: cat,
	})
	end()
	if err != nil {
		sys.Close()
		return nil, err
	}
	w := &svcInst{
		ctx: ctx, sys: sys, svc: svc, refs: refs, tuples: make(map[string]int64),
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConns: ctx.clients, MaxIdleConnsPerHost: ctx.clients}},
	}
	for _, rn := range catalogNames("R", svcRRels) {
		for _, sn := range catalogNames("S", svcSRels) {
			w.tuples[rn+"|"+sn] = cat[rn].Tuples() + cat[sn].Tuples()
		}
	}
	warm := svcMix(ctx, 0, w.tuples)[:sz.svcWarmQueries]
	if rr := w.replay(warm, "warm"); failedOps(rr.ops) > 0 {
		w.close()
		return nil, fmt.Errorf("service warm-up: %d of %d queries failed", failedOps(rr.ops), len(warm))
	}
	w.lastStats = svc.Stats()
	return w, nil
}

// svcMix builds round n's requests: every round holds the same multiset
// of (R, S, tenant, priority) combinations, shuffled by the seed;
// position decides which queries stream and which stop early. tuples
// maps "R|S" to the pair's input tuple count.
func svcMix(ctx *runCtx, round int, tuples map[string]int64) []svcQuery {
	n := ctx.sz.svcRoundQueries
	rs, ss := catalogNames("R", svcRRels), catalogNames("S", svcSRels)
	reqs := make([]service.Request, n)
	for i := range reqs {
		reqs[i] = service.Request{
			R: rs[i%svcRRels], S: ss[i%svcSRels],
			Tenant: fmt.Sprintf("t%d", (i/3)%svcTenants), Priority: (i / 5) % svcPriorities,
		}
	}
	rng := rand.New(rand.NewSource(ctx.seed*7919 + int64(round)))
	rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	out := make([]svcQuery, n)
	for i, req := range reqs {
		req.ID = fmt.Sprintf("r%d.%d", round, i)
		req.Stream = i%svcStreamEvery == 0
		if i%svcStopEvery == 0 {
			req.Stream, req.StopAfter = true, svcStopAfter
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a Request of plain strings and ints always marshals
		}
		key := req.R + "|" + req.S
		out[i] = svcQuery{body: body, rs: key, stream: req.Stream, stop: req.StopAfter > 0, tuples: tuples[key]}
	}
	return out
}

// post sends one query and reads its JSONL reply to the end.
func (w *svcInst) post(q svcQuery, opID string) (opSample, svcSample) {
	tr := w.ctx.tr
	kind := "plain"
	switch {
	case q.stop:
		kind = "stop_after"
	case q.stream:
		kind = "stream"
	}
	s := opSample{kind: kind, tuples: q.tuples}
	var line service.ResultLine
	fail := func(format string, args ...any) {
		s.failed = true
		w.ctx.fails.addf("service %s %s: %s", opID, q.rs, fmt.Sprintf(format, args...))
	}
	id, end := tr.begin("POST /join", opID, 0)
	defer end()
	t0 := time.Now()
	resp, err := w.httpc.Post(w.svc.URL()+"/join", "application/json", bytes.NewReader(q.body))
	if err != nil {
		s.wall = time.Since(t0)
		fail("%v", err)
		return s, svcSample{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.wall = time.Since(t0)
		fail("refused: HTTP %d", resp.StatusCode)
		return s, svcSample{}
	}
	var pairs int64
	results := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b := sc.Bytes()
		switch {
		case bytes.HasPrefix(b, []byte(`{"type":"pair"`)):
			if pairs++; pairs == 1 {
				s.firstPair = time.Since(t0)
				tr.mark("first pair", opID, id)
			}
		case bytes.HasPrefix(b, []byte(`{"type":"result"`)):
			results++
			s.wall = time.Since(t0)
			tr.mark("result", opID, id)
			if err := json.Unmarshal(b, &line); err != nil {
				fail("result line: %v", err)
			}
		}
	}
	if s.wall == 0 {
		s.wall = time.Since(t0)
	}
	if err := sc.Err(); err != nil {
		fail("reading reply: %v", err)
	}
	if results != 1 {
		fail("%d result lines, want exactly 1", results)
		return s, svcSample{}
	}
	ref := w.refs[q.rs]
	switch {
	case line.Failed:
		fail("failed: %s", line.Reason)
	case q.stop:
		if want := min(ref.matches, svcStopAfter); line.Matches != want || line.Stopped != (ref.matches > svcStopAfter) || pairs != want {
			fail("stop_after %d: matches %d stopped %v pairs %d, want %d pairs of %d", svcStopAfter, line.Matches, line.Stopped, pairs, want, ref.matches)
		}
	default:
		if line.Matches != ref.matches {
			fail("matches %d, want %d", line.Matches, ref.matches)
		}
		if want := fmt.Sprintf("%016x", ref.hash); line.OutputHash != want {
			fail("output hash %s, want %s (solo CDT-GH)", line.OutputHash, want)
		}
		if q.stream && (pairs != line.Streamed || line.Streamed+line.StreamDropped != line.Matches) {
			fail("stream: %d pair lines, streamed %d + dropped %d, matches %d", pairs, line.Streamed, line.StreamDropped, line.Matches)
		}
	}
	return s, svcSample{
		wireMS: ms(s.wall) - line.LatencyMS, waitMS: line.WaitMS, runMS: line.LatencyMS - line.WaitMS,
		streamed: line.Streamed, dropped: line.StreamDropped,
	}
}

// replay drives the queries through a closed loop of ctx.clients
// clients: each waits for its reply before asking again.
func (w *svcInst) replay(qs []svcQuery, label string) *roundResult {
	rr := &roundResult{ops: make([]opSample, len(qs)), svc: make([]svcSample, len(qs)), counts: map[string]float64{}}
	var next atomic.Int64
	var hp hostProbe
	hp.start()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.ctx.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				rr.ops[i], rr.svc[i] = w.post(qs[i], fmt.Sprintf("%s.%d", label, i))
			}
		}()
	}
	wg.Wait()
	rr.wall = time.Since(t0)
	rr.host = hp.stop()
	for _, s := range rr.svc {
		rr.pairsStreamed += s.streamed
		rr.pairsDropped += s.dropped
	}
	return rr
}

func (w *svcInst) round() *roundResult {
	w.nextRound++
	rr := w.replay(svcMix(w.ctx, w.nextRound, w.tuples), fmt.Sprintf("r%d", w.nextRound))
	st := w.svc.Stats()
	for _, n := range st.Rejected {
		rr.rejected += n
	}
	for _, n := range w.lastStats.Rejected {
		rr.rejected -= n
	}
	rr.mounts = int64(st.Engine.Mounts - w.lastStats.Engine.Mounts)
	w.lastStats = st
	return rr
}

func (w *svcInst) close() {
	if err := w.svc.Drain(); err != nil {
		w.ctx.fails.addf("service drain: %v", err)
	}
	w.httpc.CloseIdleConnections()
	w.sys.Close()
}

func failedOps(ops []opSample) int {
	n := 0
	for _, o := range ops {
		if o.failed {
			n++
		}
	}
	return n
}
