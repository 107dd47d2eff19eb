// Package service is the daemon layer of the resident join system: an
// HTTP/JSON front end over workload.OnlineEngine. Queries arrive as
// POST /join bodies, are admitted continuously under the engine's M/k
// cost-model budget, merge into in-flight shared S-scans when
// compatible, and stream their results back as JSONL. The server adds
// what the engine deliberately leaves out: per-tenant outstanding
// quotas (429), strict request decoding (400), graceful drain (503 for
// new work while admitted work finishes), a /stats snapshot, a
// /relations catalog listing, and the obsserver telemetry routes
// (/metrics, /health, /flight, /debug/pprof) mounted on the same mux.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/obs/obsserver"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/workload"
)

// HTTP-level rejection kinds. Like the engine's Reason* constants,
// every error body is "<kind>: <detail>".
const (
	// ReasonBadRequest marks a body the strict decoder refused.
	ReasonBadRequest = "bad-request"
	// ReasonUnknownRelation marks an R or S name missing from the
	// catalog.
	ReasonUnknownRelation = "unknown-relation"
	// ReasonQuota marks a tenant at its outstanding-query quota.
	ReasonQuota = "quota-exceeded"
	// ReasonDraining marks a query arriving after drain began.
	ReasonDraining = "draining"
)

// Config assembles a Server.
type Config struct {
	// Engine is the resident scheduler's configuration: resources,
	// policy, cache, merge window.
	Engine workload.OnlineConfig
	// Catalog names the relations queries may reference.
	Catalog map[string]*relation.Relation
	// TenantQuota caps each tenant's outstanding (accepted, not yet
	// finished) queries; 0 means unlimited.
	TenantQuota int
	// Obs, when non-nil, serves live telemetry on the service mux. The
	// server points it at the engine's registry and flight recorder.
	Obs *obsserver.Server
	// Health is the obs health source (backend-dependent; may be nil).
	Health obsserver.HealthSource
}

// Server is the resident join daemon. Build with New, expose with
// Start (or embed Handler), stop with Drain.
type Server struct {
	cfg Config
	eng *workload.OnlineEngine
	mux *http.ServeMux

	mu          sync.Mutex
	outstanding map[string]int
	draining    bool
	nextID      int64
	accepted    int64
	rejected    map[string]int64 // by Reason* kind

	ln  net.Listener
	srv *http.Server

	drainOnce sync.Once
	drainErr  error

	// cancelled, when non-nil, is called with a streaming query's ID
	// once its handler has cancelled it after the client went away. It
	// is a test hook: tests order other work after the cancellation.
	cancelled func(id string)
}

// New starts the resident engine and returns the daemon wrapped around
// it. The caller must eventually call Drain.
func New(cfg Config) (*Server, error) {
	if len(cfg.Catalog) == 0 {
		return nil, errors.New("service: empty catalog")
	}
	if cfg.Obs != nil {
		// The resident service owns its telemetry: make sure the engine
		// writes somewhere scrapeable, then point the obs routes there.
		if cfg.Engine.Resources.Metrics == nil {
			cfg.Engine.Resources.Metrics = obs.NewRegistry()
		}
		if cfg.Engine.Resources.Flight == nil {
			cfg.Engine.Resources.Flight = obs.NewFlightRecorder(0)
		}
		cfg.Obs.SetSources(cfg.Engine.Resources.Metrics, cfg.Engine.Resources.Flight, cfg.Health)
	}
	eng, err := workload.StartOnline(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		eng:         eng,
		outstanding: make(map[string]int),
		rejected:    make(map[string]int64),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/join", s.handleJoin)
	s.mux.HandleFunc("/relations", s.handleRelations)
	s.mux.HandleFunc("/stats", s.handleStats)
	if cfg.Obs != nil {
		s.mux.Handle("/metrics", cfg.Obs.Handler())
		s.mux.Handle("/health", cfg.Obs.Handler())
		s.mux.Handle("/flight", cfg.Obs.Handler())
		s.mux.Handle("/debug/pprof/", cfg.Obs.Handler())
	}
	return s, nil
}

// Start binds addr (":0" for ephemeral) and serves in the background,
// returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("service: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain shuts the daemon down gracefully: new queries are rejected
// with 503 immediately, everything already admitted is served to
// completion, and only then does the HTTP listener close (in-flight
// responses finish streaming first). Safe to call more than once;
// returns the engine's run error, if any.
func (s *Server) Drain() error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		srv := s.srv
		s.mu.Unlock()
		s.drainErr = s.eng.Drain()
		if srv != nil {
			// Admitted work is delivered, so handlers are finishing their
			// final writes; Shutdown waits for those, with a backstop for
			// clients that stopped reading mid-stream.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := srv.Shutdown(ctx); err != nil {
				srv.Close()
			}
			cancel()
		}
	})
	return s.drainErr
}

// Close is Drain: the daemon has no non-graceful teardown.
func (s *Server) Close() error { return s.Drain() }

// AcceptedLine is the first JSONL line of a /join response.
type AcceptedLine struct {
	Type   string `json:"type"` // "accepted"
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
}

// PairLine is one streamed output pair. Keys are decimal strings so
// full-range uint64 keys survive JSON number precision.
type PairLine struct {
	Type string `json:"type"` // "pair"
	R    string `json:"r"`
	S    string `json:"s"`
}

// ResultLine is the final JSONL line of a /join response.
type ResultLine struct {
	Type      string `json:"type"` // "result"
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Requested string `json:"requested,omitempty"`
	Method    string `json:"method,omitempty"`
	Shared    bool   `json:"shared,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Requeued  bool   `json:"requeued,omitempty"`
	Failed    bool   `json:"failed,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Matches   int64  `json:"matches"`
	// Stopped marks a join terminated early — stop_after reached, or the
	// streaming client went away; matches then counts only the delivered
	// prefix. FirstTupleMS is the virtual time to the first output pair.
	Stopped      bool    `json:"stopped,omitempty"`
	FirstTupleMS float64 `json:"first_tuple_ms,omitempty"`
	// OutputHash is the order-independent pair digest, "%016x" — the
	// cross-schedule equivalence oracle, hex so the full uint64
	// survives JSON.
	OutputHash string `json:"output_hash"`
	// WaitMS and LatencyMS are wall-clock queue wait and total latency.
	WaitMS    float64 `json:"wait_ms"`
	LatencyMS float64 `json:"latency_ms"`
	// VirtualMS is the query's service time on the session clock.
	VirtualMS float64 `json:"virtual_ms"`
	// Streamed and StreamDropped count pairs sent on the stream and
	// pairs beyond the stream window (matches is always exact).
	Streamed      int64 `json:"streamed,omitempty"`
	StreamDropped int64 `json:"stream_dropped,omitempty"`
}

// errorBody is every non-200 response: {"error": "<kind>: <detail>"}.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) reject(w http.ResponseWriter, code int, kind, detail string) {
	s.mu.Lock()
	s.rejected[kind]++
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: kind + ": " + detail})
}

// streamWindow is the per-query buffered-pair window for streaming
// responses. A client that reads slower than the join emits loses
// pairs beyond the window — counted in the result line's
// stream_dropped — rather than stalling the scheduler; the result
// line's matches and output_hash are always exact.
const streamWindow = 4096

// streamSink counts and digests like CountSink (so the engine can lift
// OutputHash from it) and additionally fans pairs into a bounded
// channel for the response stream. Emit runs on the scheduler proc and
// must never block on a slow client: beyond the window it drops the
// pair and counts it. All Emits happen before the engine delivers the
// result, so reading dropped after the result is race-free.
//
// It is a join.StreamSink: cancel flips the satisfied flag from the
// handler's goroutine when the client goes away, and the join layer —
// which polls Satisfied before every device read and at every emission
// point — unwinds the query with a clean partial result. Only this
// query stops; the resident kernel and every other tenant's work are
// untouched.
//
// It inherits CountSink's join.Rewinder methods, which would not
// rewind ch or dropped. That is safe only because a StreamSink always
// runs in streaming mode, never whole-run staged, so the join layer
// never marks or rewinds it.
type streamSink struct {
	join.CountSink
	ch        chan [2]uint64
	dropped   int64
	cancelled atomic.Bool
}

// Emit implements join.Sink.
func (s *streamSink) Emit(p *sim.Proc, r, t block.Tuple) {
	s.CountSink.Emit(p, r, t)
	select {
	case s.ch <- [2]uint64{r.Key, t.Key}:
	default:
		s.dropped++
	}
}

// Satisfied implements join.StreamSink.
func (s *streamSink) Satisfied() bool { return s.cancelled.Load() }

// cancel asks the join to stop at its next poll. Safe from any
// goroutine.
func (s *streamSink) cancel() { s.cancelled.Store(true) }

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.reject(w, http.StatusMethodNotAllowed, ReasonBadRequest, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.reject(w, http.StatusBadRequest, ReasonBadRequest, "read body: "+err.Error())
		return
	}
	req, err := DecodeRequest(body)
	if err != nil {
		s.reject(w, http.StatusBadRequest, ReasonBadRequest, err.Error())
		return
	}
	relR, okR := s.cfg.Catalog[req.R]
	relS, okS := s.cfg.Catalog[req.S]
	if !okR || !okS {
		missing := req.R
		if okR {
			missing = req.S
		}
		s.reject(w, http.StatusNotFound, ReasonUnknownRelation, missing)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}

	// Admission bookkeeping: the draining check and the quota slot are
	// taken under one lock so drain never races an admission.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(w, http.StatusServiceUnavailable, ReasonDraining, "server is draining")
		return
	}
	if q := s.cfg.TenantQuota; q > 0 && s.outstanding[tenant] >= q {
		n := s.outstanding[tenant]
		s.mu.Unlock()
		s.reject(w, http.StatusTooManyRequests, ReasonQuota,
			fmt.Sprintf("tenant %q has %d outstanding (quota %d)", tenant, n, q))
		return
	}
	s.outstanding[tenant]++
	s.nextID++
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("sq%d", s.nextID)
	}
	s.mu.Unlock()
	release := func() {
		s.mu.Lock()
		if s.outstanding[tenant]--; s.outstanding[tenant] == 0 {
			delete(s.outstanding, tenant)
		}
		s.mu.Unlock()
	}

	var pairCh chan [2]uint64 // nil when not streaming: its select case never fires
	var sink join.Sink
	var ssink *streamSink
	if req.Stream {
		ssink = &streamSink{ch: make(chan [2]uint64, streamWindow)}
		pairCh = ssink.ch
		sink = ssink
	} else {
		sink = &join.CountSink{}
	}
	oq := workload.OnlineQuery{
		Query: workload.Query{
			ID: id, Method: req.Method,
			R: relR, S: relS, Sink: sink,
			StopAfter: req.StopAfter,
		},
		Tenant:   tenant,
		Priority: req.Priority,
	}
	if req.DeadlineMS > 0 {
		oq.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	resCh, err := s.eng.Submit(oq)
	if err != nil {
		release()
		if errors.Is(err, workload.ErrDraining) {
			s.reject(w, http.StatusServiceUnavailable, ReasonDraining, err.Error())
			return
		}
		s.reject(w, http.StatusBadRequest, ReasonBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	s.accepted++
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(AcceptedLine{Type: "accepted", ID: id, Tenant: tenant})
	flush()

	// The engine delivers exactly one result, even across drain and
	// kernel shutdown, so this loop always terminates. Streamed pairs
	// all precede the result delivery; any still buffered when the
	// result arrives are flushed by the drain loop below.
	var streamed int64
	var res workload.OnlineResult
	var pairBuf []byte
	writePair := func(p [2]uint64) {
		pairBuf = appendPairLine(pairBuf[:0], p[0], p[1])
		w.Write(pairBuf)
		if streamed++; streamed%64 == 0 {
			flush()
		}
	}
	// A streaming client that goes away mid-join cancels its query: the
	// sink's satisfied flag flips, the join unwinds at its next poll
	// with a clean partial result, and the drives stop reading for it.
	// Non-streaming queries run to completion (their sink has no cancel
	// path) — the result is simply discarded with the connection.
	ctxDone := r.Context().Done()
wait:
	for {
		select {
		case p := <-pairCh:
			writePair(p)
		case <-ctxDone:
			if ssink != nil {
				ssink.cancel()
				if s.cancelled != nil {
					s.cancelled(id)
				}
			}
			ctxDone = nil
		case got, ok := <-resCh:
			if ok {
				res = got
			}
			break wait
		}
	}
drain:
	for {
		select {
		case p := <-pairCh:
			writePair(p)
		default:
			break drain
		}
	}
	release()

	line := ResultLine{
		Type: "result", ID: res.ID, Tenant: tenant,
		Requested: res.Requested, Method: res.Method,
		Shared: res.Shared, CacheHit: res.CacheHit, Requeued: res.Requeued,
		Failed: res.Failed, Reason: res.Reason,
		Matches:      res.Matches,
		Stopped:      res.Stopped,
		FirstTupleMS: float64(res.FirstTuple) / float64(time.Millisecond),
		OutputHash:   fmt.Sprintf("%016x", res.OutputHash),
		WaitMS:       float64(res.WallWait()) / float64(time.Millisecond),
		LatencyMS:    float64(res.WallLatency()) / float64(time.Millisecond),
		VirtualMS:    float64(res.End-res.Start) / float64(time.Millisecond),
		Streamed:     streamed,
	}
	if ssink != nil {
		line.StreamDropped = ssink.dropped
	}
	enc.Encode(line)
	flush()
}

// appendPairLine appends the JSONL line of PairLine{Type: "pair", R: r,
// S: s} to dst, byte for byte what a json.Encoder writes for it, with
// no reflection or formatting allocations.
func appendPairLine(dst []byte, r, s uint64) []byte {
	dst = append(dst, `{"type":"pair","r":"`...)
	dst = strconv.AppendUint(dst, r, 10)
	dst = append(dst, `","s":"`...)
	dst = strconv.AppendUint(dst, s, 10)
	return append(dst, "\"}\n"...)
}

// RelationInfo is one row of GET /relations.
type RelationInfo struct {
	Name   string `json:"name"`
	Media  string `json:"media"`
	Blocks int64  `json:"blocks"`
	Tuples int64  `json:"tuples"`
}

func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	rows := make([]RelationInfo, 0, len(s.cfg.Catalog))
	for name, rel := range s.cfg.Catalog {
		rows = append(rows, RelationInfo{
			Name: name, Media: rel.Media.Name(),
			Blocks: rel.Blocks, Tuples: rel.Tuples(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

// StatsBody is the GET /stats document.
type StatsBody struct {
	Policy   string `json:"policy"`
	Draining bool   `json:"draining"`
	Accepted int64  `json:"accepted"`
	// Rejected counts HTTP-level rejections by kind.
	Rejected map[string]int64 `json:"rejected"`
	// Outstanding is the per-tenant count of accepted, unfinished
	// queries.
	Outstanding map[string]int `json:"outstanding"`
	// Engine is the scheduler's snapshot.
	Engine workload.OnlineStats `json:"engine"`
}

// Stats snapshots the daemon.
func (s *Server) Stats() StatsBody {
	st := StatsBody{Engine: s.eng.Stats()}
	s.mu.Lock()
	st.Policy = s.cfg.Engine.Policy.String()
	st.Draining = s.draining
	st.Accepted = s.accepted
	st.Rejected = make(map[string]int64, len(s.rejected))
	for k, v := range s.rejected {
		st.Rejected[k] = v
	}
	st.Outstanding = make(map[string]int, len(s.outstanding))
	for k, v := range s.outstanding {
		st.Outstanding[k] = v
	}
	s.mu.Unlock()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}
