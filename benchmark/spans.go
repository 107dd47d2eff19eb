package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side span: a call the driver made into the
// system under test, or one batch of calls into a single layer. Spans
// are recorded from the benchmark's own files only; tracing inside the
// program is a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     string `json:"op,omitempty"` // spans of one op share this identifier
	Name   string `json:"name"`
	// StartNS and EndNS are host nanoseconds since the tracer was made.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. A nil tracer records nothing, so the untraced run pays only a
// nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id and the function that closes
// it. Safe from several goroutines (the service clients).
func (t *tracer) begin(name, op string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: int64(start)})
	id := len(t.spans)
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].EndNS = int64(end)
		t.mu.Unlock()
	}
}

// mark records a zero-length span (first pair, result line).
func (t *tracer) mark(name, op string, parent int) {
	_, end := t.begin(name, op, parent)
	end()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
