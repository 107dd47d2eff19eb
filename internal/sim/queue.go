package sim

import "fmt"

// Queue is a bounded FIFO channel in virtual time, used to connect
// producer and consumer processes in a join pipeline. Send blocks when
// the queue is full, Recv blocks when it is empty. After Close, Recv
// drains remaining items and then reports ok=false.
type Queue[T any] struct {
	k      *Kernel
	name   string
	cap    int
	items  []T
	closed bool

	sendWait []*Proc
	recvWait []*Proc
}

// NewQueue returns a queue with the given capacity (>= 1).
func NewQueue[T any](k *Kernel, name string, capacity int) *Queue[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: queue %q capacity %d < 1", name, capacity))
	}
	return &Queue[T]{k: k, name: name, cap: capacity}
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Send enqueues v, blocking in virtual time while the queue is full.
// Send panics if the queue is closed.
func (q *Queue[T]) Send(p *Proc, v T) {
	for len(q.items) >= q.cap {
		if q.closed {
			panic(fmt.Sprintf("sim: send on closed queue %q", q.name))
		}
		q.sendWait = append(q.sendWait, p)
		p.blockOn(stateBlocked, "queue-send", q.name)
	}
	if q.closed {
		panic(fmt.Sprintf("sim: send on closed queue %q", q.name))
	}
	q.items = append(q.items, v)
	q.wakeRecv()
}

// Recv dequeues the next item. ok is false when the queue is closed
// and drained.
func (q *Queue[T]) Recv(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.recvWait = append(q.recvWait, p)
		p.blockOn(stateBlocked, "queue-recv", q.name)
	}
	v = q.items[0]
	var zero T
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = zero // release the moved-out slot
	q.items = q.items[:len(q.items)-1]
	q.wakeSend()
	return v, true
}

// Close marks the queue closed. Blocked receivers wake and observe the
// drained queue; further Sends panic.
func (q *Queue[T]) Close(p *Proc) {
	if q.closed {
		return
	}
	q.closed = true
	q.wakeRecv()
}

func (q *Queue[T]) wakeRecv() {
	for _, w := range q.recvWait {
		q.k.makeReady(w)
	}
	q.recvWait = q.recvWait[:0]
}

func (q *Queue[T]) wakeSend() {
	for _, w := range q.sendWait {
		q.k.makeReady(w)
	}
	q.sendWait = q.sendWait[:0]
}
