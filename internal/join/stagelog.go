package join

import (
	"repro/internal/block"
	"repro/internal/sim"
)

// stageLog holds output pairs that may yet be discarded: a recoverable
// unit's until it commits, a whole run's until no drive-loss re-plan
// can rewind it, a shared-scan rider's until the pass succeeds. Pairs
// are copied into pointer-free chunks as two block-encoded tuples, so
// the log costs the collector nothing to scan and pins no block.
//
// Chunks survive rewind and flush and are reused, which is sound only
// under the Sink.Emit lifetime rule: flushed tuples alias chunk memory.
// Chunk sizes double from stageChunkMin to stageChunkMax, so a log
// holding n bytes has allocated under 2n; a pair never straddles
// chunks, and one larger than the next size gets a chunk of its own.
type stageLog struct {
	chunks [][]byte // chunks[:used] hold pairs; the rest await reuse
	used   int
	pairs  int64
}

const (
	stageChunkMin = 4 << 10
	stageChunkMax = 1 << 20
)

// logMark is a savepoint: a position in a stageLog.
type logMark struct {
	used, off int
	pairs     int64
}

// emit appends one pair, copying both payloads.
func (l *stageLog) emit(r, s block.Tuple) {
	need := 2*block.TupleOverhead + len(r.Payload) + len(s.Payload)
	if l.used == 0 || cap(l.chunks[l.used-1])-len(l.chunks[l.used-1]) < need {
		l.advance(need)
	}
	c := &l.chunks[l.used-1]
	*c = block.AppendTuple(block.AppendTuple(*c, r), s)
	l.pairs++
}

// advance opens an empty chunk with room for need bytes: the next
// retained one when it is large enough, else a new one.
func (l *stageLog) advance(need int) {
	if l.used < len(l.chunks) && cap(l.chunks[l.used]) >= need {
		l.chunks[l.used] = l.chunks[l.used][:0]
		l.used++
		return
	}
	size := stageChunkMin
	if l.used > 0 {
		size = 2 * cap(l.chunks[l.used-1])
	}
	if size > stageChunkMax {
		size = stageChunkMax
	}
	if size < need {
		size = need
	}
	l.chunks = append(l.chunks[:l.used], make([]byte, 0, size))
	l.used++
}

// savepoint marks the current end of the log.
func (l *stageLog) savepoint() logMark {
	m := logMark{used: l.used, pairs: l.pairs}
	if l.used > 0 {
		m.off = len(l.chunks[l.used-1])
	}
	return m
}

// rewind discards every pair emitted since m was taken.
func (l *stageLog) rewind(m logMark) {
	l.used, l.pairs = m.used, m.pairs
	if m.used > 0 {
		l.chunks[m.used-1] = l.chunks[m.used-1][:m.off]
	}
}

// flush delivers the held pairs to emit in emission order, empties the
// log, and returns how many there were.
func (l *stageLog) flush(p *sim.Proc, emit func(*sim.Proc, block.Tuple, block.Tuple)) int64 {
	for _, c := range l.chunks[:l.used] {
		for off := 0; off < len(c); {
			var r, s block.Tuple
			r, off = block.TupleAt(c, off)
			s, off = block.TupleAt(c, off)
			emit(p, r, s)
		}
	}
	n := l.pairs
	l.rewind(logMark{})
	return n
}
