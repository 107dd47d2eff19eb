package join

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/sim"
)

// modelPair is one pair of the plain-slice reference model, with its
// own copies of the payloads.
type modelPair struct {
	rKey, sKey uint64
	rPay, sPay []byte
}

// poison overwrites every chunk byte that holds no live pair — the
// space flush and rewind gave up: what chunk reuse will eventually do
// to anything that still points there.
func (l *stageLog) poison() {
	for i, c := range l.chunks {
		free := c[len(c):cap(c)]
		if i >= l.used {
			free = c[:cap(c)]
		}
		for j := range free {
			free[j] = 0xA5
		}
	}
}

// collect flushes l and returns what it delivered, copied during the
// call as the Sink.Emit contract demands.
func collect(l *stageLog) []modelPair {
	var got []modelPair
	l.flush(nil, func(_ *sim.Proc, r, s block.Tuple) {
		got = append(got, modelPair{r.Key, s.Key,
			append([]byte(nil), r.Payload...), append([]byte(nil), s.Payload...)})
	})
	return got
}

func pairsEqual(a, b []modelPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].rKey != b[i].rKey || a[i].sKey != b[i].sKey ||
			!bytes.Equal(a[i].rPay, b[i].rPay) || !bytes.Equal(a[i].sPay, b[i].sPay) {
			return false
		}
	}
	return true
}

// TestStageLogMatchesSliceModel drives the log and a [](pair) model
// through random emit / savepoint / rewind / flush / reset sequences and
// demands identical delivery. Payload lengths include 0, 1 and the
// 65535-byte maximum, so pairs larger than the next chunk occur, and
// the chunks are poisoned after every flush, rewind and reset: nothing
// delivered later may depend on discarded bytes.
func TestStageLogMatchesSliceModel(t *testing.T) {
	lengths := []int{0, 1, 8, 8, 8, 300, stageChunkMin, 1<<16 - 1}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l stageLog
		var model []modelPair
		type mark struct {
			m logMark
			n int
		}
		var marks []mark
		payload := func() []byte {
			p := make([]byte, lengths[rng.Intn(len(lengths))])
			rng.Read(p)
			return p
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(100); {
			case op < 70:
				mp := modelPair{rng.Uint64(), rng.Uint64(), payload(), payload()}
				model = append(model, mp)
				l.emit(block.Tuple{Key: mp.rKey, Payload: mp.rPay}, block.Tuple{Key: mp.sKey, Payload: mp.sPay})
			case op < 80:
				marks = append(marks, mark{l.savepoint(), len(model)})
			case op < 90:
				if len(marks) == 0 {
					continue
				}
				// Rewinding to a mark invalidates the later ones.
				i := rng.Intn(len(marks))
				l.rewind(marks[i].m)
				model = model[:marks[i].n]
				marks = marks[:i+1]
				l.poison()
				if got := snapshot(&l); !pairsEqual(got, model) {
					t.Fatalf("seed %d step %d: after rewind log holds %d pairs, model %d", seed, step, len(got), len(model))
				}
			case op < 97:
				if got := collect(&l); !pairsEqual(got, model) {
					t.Fatalf("seed %d step %d: flush delivered %d pairs, model %d", seed, step, len(got), len(model))
				}
				model, marks = nil, nil
				l.poison()
			default:
				l.rewind(logMark{})
				model, marks = nil, nil
				l.poison()
			}
			if l.pairs != int64(len(model)) {
				t.Fatalf("seed %d step %d: log counts %d pairs, model %d", seed, step, l.pairs, len(model))
			}
		}
		if got := collect(&l); !pairsEqual(got, model) {
			t.Fatalf("seed %d: final flush delivered %d pairs, model %d", seed, len(got), len(model))
		}
	}
}

// snapshot reads the held pairs without consuming them: it flushes a
// shallow copy, whose rewind leaves the original's chunks untouched.
func snapshot(l *stageLog) []modelPair {
	cp := *l
	cp.chunks = append([][]byte(nil), l.chunks...)
	return collect(&cp)
}

// TestStageLogChunkSizing pins the allocation bound the service
// workload depends on: a log holding n bytes has allocated less than
// 2n plus the first chunk, and a flushed log reuses its chunks.
func TestStageLogChunkSizing(t *testing.T) {
	var l stageLog
	pay := make([]byte, 8)
	allocated := func() (n int) {
		for _, c := range l.chunks {
			n += cap(c)
		}
		return n
	}
	for i := 0; i < 200000; i++ {
		l.emit(block.Tuple{Key: uint64(i), Payload: pay}, block.Tuple{Key: uint64(i), Payload: pay})
		if i == 0 && allocated() != stageChunkMin {
			t.Fatalf("first chunk is %d bytes, want %d", allocated(), stageChunkMin)
		}
	}
	held := 200000 * (2*block.TupleOverhead + 16)
	if got := allocated(); got >= 2*held+stageChunkMin {
		t.Fatalf("allocated %d bytes for %d held", got, held)
	}
	before := allocated()
	l.flush(nil, func(*sim.Proc, block.Tuple, block.Tuple) {})
	for i := 0; i < 200000; i++ {
		l.emit(block.Tuple{Key: uint64(i), Payload: pay}, block.Tuple{Key: uint64(i), Payload: pay})
	}
	if got := allocated(); got != before {
		t.Fatalf("refilling a flushed log allocated %d more bytes", got-before)
	}
}

// TestSinksKeepNothingFromTheLog enforces the Sink.Emit lifetime rule
// on every sink of this package: pairs are delivered from a staging
// log — once by flush, once after a rewind — the log's chunks are then
// poisoned, and each sink must still report what a reference sink fed
// from stable memory reports.
func TestSinksKeepNothingFromTheLog(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pairs []modelPair
	for i := 0; i < 500; i++ {
		rp, sp := make([]byte, rng.Intn(12)), make([]byte, rng.Intn(12))
		rng.Read(rp)
		rng.Read(sp)
		k := uint64(rng.Intn(40))
		pairs = append(pairs, modelPair{k, k, rp, sp})
	}
	sinks := map[string]func() Sink{
		"CountSink":      func() Sink { return &CountSink{} },
		"GroupCountSink": func() Sink { return &GroupCountSink{} },
		"PairSink":       func() Sink { return &PairSink{} },
		"StopSink":       func() Sink { return &StopSink{Inner: &CountSink{}, N: 3} },
	}
	for name, mk := range sinks {
		want, got := mk(), mk()
		for _, mp := range pairs {
			want.Emit(nil, block.Tuple{Key: mp.rKey, Payload: mp.rPay}, block.Tuple{Key: mp.sKey, Payload: mp.sPay})
		}
		var l stageLog
		feed := func(ps []modelPair) {
			for _, mp := range ps {
				l.emit(block.Tuple{Key: mp.rKey, Payload: mp.rPay}, block.Tuple{Key: mp.sKey, Payload: mp.sPay})
			}
		}
		feed(pairs[:200])
		mark := l.savepoint()
		feed(pairs[300:]) // a failed unit's output ...
		l.rewind(mark)    // ... discarded
		l.flush(nil, got.Emit)
		l.poison()
		feed(pairs[200:])
		l.flush(nil, got.Emit)
		l.poison()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: state after poisoned-log delivery differs from stable-memory delivery", name)
		}
	}
}

var benchPairs int64

// BenchmarkStageLogEmitCommit is the staging funnel in isolation: one
// op stages 64k pairs with 8-byte payloads and commits them to a
// CountSink, reusing the log as a streaming run's units do.
func BenchmarkStageLogEmitCommit(b *testing.B) {
	const n = 1 << 16
	pay := []byte("payload8")
	var l stageLog
	sink := &CountSink{}
	b.ReportAllocs()
	b.SetBytes(n * (2*block.TupleOverhead + 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := uint64(0); k < n; k++ {
			l.emit(block.Tuple{Key: k, Payload: pay}, block.Tuple{Key: k, Payload: pay})
		}
		benchPairs += l.flush(nil, sink.Emit)
	}
}

// logOnly hides a sink's Rewinder methods, so a whole-run-staged run
// holds its pairs in the staging log.
type logOnly struct{ Sink }

// BenchmarkWholeRunEmit is one small dense DT-NB join with recovery on
// and no streaming: "rewinder" feeds a CountSink live, "log" the same
// sink behind logOnly, through the staging log and a final flush. The
// gap in B/op is the log's copy of every output pair.
func BenchmarkWholeRunEmit(b *testing.B) {
	spec := specWithSizes(b, 24, 96, 16)
	for _, tc := range []struct {
		name string
		sink func(*CountSink) Sink
	}{
		{"rewinder", func(c *CountSink) Sink { return c }},
		{"log", func(c *CountSink) Sink { return logOnly{c} }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := &CountSink{}
				if _, err := Run(DTNB{}, spec, fastRes(10, 64), tc.sink(c)); err != nil {
					b.Fatal(err)
				}
				benchPairs += c.Matches
			}
		})
	}
}
