package join

import (
	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// chunk is one piece of S (or, for SYM-H, of either relation) handed
// from a concurrent method's producer to its consumer. Which payload
// field is set depends on where the producer buffered the chunk: blks
// in memory, files on disk (one staged copy, or the hashed buckets).
// A chunk with err set poisons the pipeline.
type chunk struct {
	iter  int64 // producer iteration: the double-buffer half it fills
	off   int64 // first block of the chunk within its relation
	n     int64 // blocks in the chunk
	blks  []block.Block
	files []device.File
	fromR bool // SYM-H: read from R's drive
	eof   bool // SYM-H: the reader's end-of-stream marker
	err   error
}

// pipeline is the producer/consumer skeleton every concurrent method
// shares (Sections 4, 5.1.3, 5.1.4, 5.2.1): a producer proc brings
// chunk i+1 in while the calling proc consumes chunk i, through a
// one-slot queue the producer closes when produce returns.
//
// The first failure wins: a poisoned chunk or a failed consume sets
// the stop flag produce polls, and every later chunk goes to drop,
// which must return whatever buffer space and scratch the chunk holds.
// Once the producer has finished, a recoverable failure hands off to
// tail at the end of the last consumed chunk, which finishes the work
// sequentially; a nil tail, disabled recovery or an unrecoverable
// failure returns it. A consumer that counts iterations counts its own.
func (e *env) pipeline(p *sim.Proc, queue, producer string,
	produce func(hp *sim.Proc, q *sim.Queue[chunk], stop *bool),
	consume func(c chunk) error, drop func(c chunk), tail func(next int64) error) error {

	q := sim.NewQueue[chunk](e.k, queue, 1)
	stop := false
	prod := e.k.Spawn(producer, func(hp *sim.Proc) {
		produce(hp, q, &stop)
		q.Close(hp)
	})
	var pipeErr error
	next := int64(0)
	for {
		c, ok := q.Recv(p)
		if !ok {
			break
		}
		if c.err != nil || pipeErr != nil {
			if pipeErr == nil {
				pipeErr = c.err
			}
			stop = true
			drop(c)
			continue
		}
		if err := consume(c); err != nil {
			pipeErr = err
			stop = true
			continue
		}
		next = c.off + c.n
	}
	if err := p.Wait(prod); err != nil {
		return err
	}
	if pipeErr == nil {
		return nil
	}
	// The tail takes over on the errors runUnit restarts on.
	restart := fault.Acts(fault.Restart, pipeErr) ||
		len(e.disks.DeadDisks()) > 0 && fault.Acts(fault.RestartAfterLoss, pipeErr)
	if tail == nil || e.res.DisableRecovery || !restart {
		return pipeErr
	}
	return tail(next)
}

// readAhead is the memory double buffer of a concurrent tape reader:
// it streams region from drive into q in chunks of up to size blocks,
// each holding one of bufs' two slots and its blocks of M until the
// consumer drops it, so the reader runs at most one chunk ahead. A
// failed read returns its slot and memory, then poisons the queue and
// stops; a set stop flag stops the reader at the next chunk.
func (e *env) readAhead(rp *sim.Proc, q *sim.Queue[chunk], stop *bool, bufs *sim.Container,
	drive device.Drive, region device.Region, size int64, span string) {

	fromR := drive == e.driveR
	for off := int64(0); off < region.N && !*stop; off += size {
		n := min(size, region.N-off)
		bufs.Get(rp, 1)
		e.mem.acquire(n)
		sp := e.span(rp, span, obs.AInt("off", off))
		blks, err := e.tapeRead(rp, drive, region.Start+addr(off), n)
		sp.Close(rp)
		if err != nil {
			e.mem.release(n)
			bufs.Put(rp, 1)
			q.Send(rp, chunk{off: off, fromR: fromR, err: err})
			return
		}
		q.Send(rp, chunk{off: off, n: n, blks: blks, fromR: fromR})
	}
}

// dropBlocks returns a readAhead chunk's buffer slot and memory; a
// poisoned chunk holds neither.
func (e *env) dropBlocks(p *sim.Proc, bufs *sim.Container, c chunk) {
	if c.blks != nil {
		e.mem.release(c.n)
		bufs.Put(p, 1)
	}
}
