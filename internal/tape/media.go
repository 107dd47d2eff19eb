// Package tape simulates magnetic tape media and drives as the paper's
// cost model sees them: a sequential medium with a constant sustained
// transfer rate scaled by data compressibility, long repositioning
// seeks between distant locations, and optional stop/start penalties
// when streaming breaks. All sizes are in paper blocks (see package
// block); virtual transfer time is blocks * block.VirtualSize / rate.
package tape

import (
	"errors"
	"fmt"

	"repro/internal/block"
)

// Addr is a block address on a tape, counted from the beginning of
// data.
type Addr int64

// Region describes a contiguous range of blocks on a tape, e.g. a
// relation or a run of hash buckets.
type Region struct {
	Start Addr
	N     int64
}

// End returns the address one past the region.
func (r Region) End() Addr { return r.Start + Addr(r.N) }

// Sub returns the sub-region [off, off+n) within r.
func (r Region) Sub(off, n int64) Region {
	if off < 0 || n < 0 || off+n > r.N {
		panic(fmt.Sprintf("tape: Sub(%d,%d) out of region of %d blocks", off, n, r.N))
	}
	return Region{Start: r.Start + Addr(off), N: n}
}

// Media is a tape cartridge: an append-only sequence of blocks with a
// capacity. Reads may address any written block; writes only append at
// the end of data (the paper's scratch space is the tail of the tape).
type Media struct {
	name     string
	capacity int64
	blocks   []block.Block
}

// ErrTapeFull is returned when an append exceeds media capacity.
var ErrTapeFull = errors.New("tape: media full")

// NewMedia returns an empty cartridge holding at most capacity blocks.
func NewMedia(name string, capacity int64) *Media {
	if capacity <= 0 {
		panic(fmt.Sprintf("tape: media %q capacity %d", name, capacity))
	}
	return &Media{name: name, capacity: capacity}
}

// Name returns the cartridge name.
func (m *Media) Name() string { return m.name }

// Capacity returns the cartridge capacity in blocks.
func (m *Media) Capacity() int64 { return m.capacity }

// EOD returns the end-of-data address: the number of blocks written.
func (m *Media) EOD() Addr { return Addr(len(m.blocks)) }

// Free returns the remaining scratch space in blocks.
func (m *Media) Free() int64 { return m.capacity - int64(len(m.blocks)) }

// append adds blocks at end of data.
func (m *Media) append(blks []block.Block) (Region, error) {
	if int64(len(m.blocks)+len(blks)) > m.capacity {
		return Region{}, fmt.Errorf("%w: %q has %d free, need %d", ErrTapeFull, m.name, m.Free(), len(blks))
	}
	start := m.EOD()
	m.blocks = append(m.blocks, blks...)
	return Region{Start: start, N: int64(len(blks))}, nil
}

// read copies out the blocks in [addr, addr+n).
func (m *Media) read(addr Addr, n int64) ([]block.Block, error) {
	if addr < 0 || n < 0 || addr+Addr(n) > m.EOD() {
		return nil, fmt.Errorf("tape: read [%d,%d) beyond EOD %d on %q", addr, addr+Addr(n), m.EOD(), m.name)
	}
	out := make([]block.Block, n)
	copy(out, m.blocks[addr:addr+Addr(n)])
	return out, nil
}

// writeAt overwrites blocks starting at addr, extending EOD if the
// write runs past it. Writes may not leave gaps (addr <= EOD). Real
// tape writes invalidate data beyond the written region; we model the
// fixed-block overwrite-in-place mode some drives offer, which the
// sort-merge baseline's ping-pong workspaces rely on (a documented
// idealization in its favor).
func (m *Media) writeAt(addr Addr, blks []block.Block) error {
	n := int64(len(blks))
	if addr < 0 || addr > m.EOD() {
		return fmt.Errorf("tape: write at %d beyond EOD %d on %q", addr, m.EOD(), m.name)
	}
	if int64(addr)+n > m.capacity {
		return fmt.Errorf("%w: %q write [%d,%d) beyond capacity %d", ErrTapeFull, m.name, addr, int64(addr)+n, m.capacity)
	}
	for i, blk := range blks {
		pos := int(addr) + i
		if pos < len(m.blocks) {
			m.blocks[pos] = blk
		} else {
			m.blocks = append(m.blocks, blk)
		}
	}
	return nil
}

// AppendSetup writes blocks at end of data outside of simulated time.
// It is used to prepare input relations before a join begins — the
// paper assumes tapes are written and loaded before the measured run.
func (m *Media) AppendSetup(blks []block.Block) (Region, error) {
	return m.append(blks)
}

// ReadSetup copies out a region's blocks outside of simulated time,
// for test verification and output checking.
func (m *Media) ReadSetup(r Region) ([]block.Block, error) {
	return m.read(r.Start, r.N)
}

// Truncate discards all data from addr onward, releasing scratch
// space. Used between experiment runs to reset a cartridge.
func (m *Media) Truncate(addr Addr) {
	if addr < 0 || addr > m.EOD() {
		panic(fmt.Sprintf("tape: truncate at %d beyond EOD %d", addr, m.EOD()))
	}
	for i := int(addr); i < len(m.blocks); i++ {
		m.blocks[i] = nil
	}
	m.blocks = m.blocks[:addr]
}
