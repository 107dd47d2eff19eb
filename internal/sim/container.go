package sim

import "fmt"

// Container is a blocking counting store: a pool of identical units
// (blocks of memory, blocks of buffer space) with a fixed capacity.
// Get blocks until the requested amount is available; Put blocks until
// the store has room. Waiters on each side are served strictly FIFO,
// which keeps simulations deterministic and starvation-free: a large
// request at the head of the queue blocks smaller requests behind it.
type Container struct {
	k        *Kernel
	name     string
	capacity int64
	level    int64
	getters  []contWait
	putters  []contWait

	// HighWater tracks the maximum level reached, for space accounting.
	HighWater int64
}

type contWait struct {
	p *Proc
	n int64
}

// NewContainer returns a container with the given capacity and initial
// level.
func NewContainer(k *Kernel, name string, capacity, initial int64) *Container {
	if capacity < 0 || initial < 0 || initial > capacity {
		panic(fmt.Sprintf("sim: container %q bad capacity=%d initial=%d", name, capacity, initial))
	}
	return &Container{k: k, name: name, capacity: capacity, level: initial, HighWater: initial}
}

// Name returns the container name.
func (c *Container) Name() string { return c.name }

// Level returns the current number of units in the container.
func (c *Container) Level() int64 { return c.level }

// Capacity returns the container capacity.
func (c *Container) Capacity() int64 { return c.capacity }

// Free returns capacity minus level.
func (c *Container) Free() int64 { return c.capacity - c.level }

// Get removes n units, blocking until they are available.
func (c *Container) Get(p *Proc, n int64) {
	if n < 0 || n > c.capacity {
		panic(fmt.Sprintf("sim: container %q Get(%d) with capacity %d", c.name, n, c.capacity))
	}
	if n == 0 {
		return
	}
	if len(c.getters) == 0 && c.level >= n {
		c.level -= n
		c.service()
		return
	}
	c.getters = append(c.getters, contWait{p, n})
	p.blockOn(stateBlocked, "container-get", c.name)
	// The waking side already applied our transaction.
}

// Put adds n units, blocking until there is room.
func (c *Container) Put(p *Proc, n int64) {
	if n < 0 || n > c.capacity {
		panic(fmt.Sprintf("sim: container %q Put(%d) with capacity %d", c.name, n, c.capacity))
	}
	if n == 0 {
		return
	}
	if len(c.putters) == 0 && c.level+n <= c.capacity {
		c.bump(n)
		c.service()
		return
	}
	c.putters = append(c.putters, contWait{p, n})
	p.blockOn(stateBlocked, "container-put", c.name)
}

// TryGet removes n units if immediately available and reports whether
// it did.
func (c *Container) TryGet(p *Proc, n int64) bool {
	if n < 0 {
		panic(fmt.Sprintf("sim: container %q TryGet(%d)", c.name, n))
	}
	if len(c.getters) == 0 && c.level >= n {
		c.level -= n
		c.service()
		return true
	}
	return false
}

func (c *Container) bump(n int64) {
	c.level += n
	if c.level > c.HighWater {
		c.HighWater = c.level
	}
}

// service drains both wait queues head-first for as long as either head
// can proceed. A completed Get can make room for the head Put and vice
// versa, so the loop alternates until neither makes progress.
func (c *Container) service() {
	for {
		progressed := false
		if len(c.putters) > 0 && c.level+c.putters[0].n <= c.capacity {
			w := c.putters[0]
			copy(c.putters, c.putters[1:])
			c.putters = c.putters[:len(c.putters)-1]
			c.bump(w.n)
			c.k.makeReady(w.p)
			progressed = true
		}
		if len(c.getters) > 0 && c.level >= c.getters[0].n {
			w := c.getters[0]
			copy(c.getters, c.getters[1:])
			c.getters = c.getters[:len(c.getters)-1]
			c.level -= w.n
			c.k.makeReady(w.p)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}
