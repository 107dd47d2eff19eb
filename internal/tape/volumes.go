package tape

import (
	"fmt"

	"repro/internal/block"
)

// Medium is what a tape drive mounts: one cartridge, or an ordered set
// of cartridges behind a media robot presenting a single linear block
// address space. The paper assumes each relation fits on one tape
// "without loss of generality" because exchanges (~30 s) are
// negligible against multi-hour scans; MultiVolume lets that
// assumption be tested rather than taken.
type Medium interface {
	// Name identifies the medium.
	Name() string
	// Capacity is the total block capacity.
	Capacity() int64
	// EOD is the end-of-data address.
	EOD() Addr
	// Free is the remaining scratch space in blocks.
	Free() int64
	// ReadSetup and AppendSetup move data outside simulated time
	// (preparing inputs, verifying outputs, and a file mover's respool
	// at mount).
	ReadSetup(r Region) ([]block.Block, error)
	AppendSetup(blks []block.Block) (Region, error)

	// read, append and writeAt are the in-simulation accessors used
	// by Drive.
	read(addr Addr, n int64) ([]block.Block, error)
	append(blks []block.Block) (Region, error)
	writeAt(addr Addr, blks []block.Block) error
	// volumeOf maps a block address to the cartridge holding it, and
	// volumeSpan returns that cartridge's address range. A single
	// cartridge is volume 0 spanning everything.
	volumeOf(addr Addr) int
	volumeSpan(vol int) Region
}

var _ Medium = (*Media)(nil)

// volumeOf implements Medium: a single cartridge is one volume.
func (m *Media) volumeOf(Addr) int { return 0 }

// volumeSpan implements Medium.
func (m *Media) volumeSpan(int) Region { return Region{Start: 0, N: m.capacity} }

// MultiVolume is an ordered set of cartridges presenting one linear
// address space: block a lives on the volume whose capacity prefix
// contains a, and appends fill volumes in order. A Drive mounted on a
// MultiVolume charges a media-exchange delay whenever a request moves
// the head across a cartridge boundary.
type MultiVolume struct {
	name string
	vols []*Media
	// prefix[i] is the first address of volume i; prefix[len] = total.
	prefix []Addr
}

var _ Medium = (*MultiVolume)(nil)

// NewMultiVolume builds a volume set over the given cartridges.
func NewMultiVolume(name string, vols ...*Media) (*MultiVolume, error) {
	if len(vols) == 0 {
		return nil, fmt.Errorf("tape: volume set %q needs at least one cartridge", name)
	}
	mv := &MultiVolume{name: name, vols: vols}
	mv.prefix = make([]Addr, len(vols)+1)
	for i, v := range vols {
		if v.EOD() != 0 && i > 0 && vols[i-1].Free() != 0 {
			return nil, fmt.Errorf("tape: volume set %q: volume %d has data behind free space", name, i)
		}
		mv.prefix[i+1] = mv.prefix[i] + Addr(v.Capacity())
	}
	return mv, nil
}

// Name implements Medium.
func (mv *MultiVolume) Name() string { return mv.name }

// Capacity implements Medium.
func (mv *MultiVolume) Capacity() int64 {
	return int64(mv.prefix[len(mv.vols)])
}

// EOD implements Medium: total data across volumes. Volumes fill in
// order, so EOD is the filled prefix plus the first non-full volume's
// data.
func (mv *MultiVolume) EOD() Addr {
	var eod Addr
	for i, v := range mv.vols {
		eod = mv.prefix[i] + v.EOD()
		if v.Free() > 0 {
			break
		}
	}
	return eod
}

// Free implements Medium.
func (mv *MultiVolume) Free() int64 { return int64(mv.Capacity()) - int64(mv.EOD()) }

// volumeOf implements Medium.
func (mv *MultiVolume) volumeOf(addr Addr) int {
	for i := 1; i <= len(mv.vols); i++ {
		if addr < mv.prefix[i] {
			return i - 1
		}
	}
	return len(mv.vols) - 1
}

// volumeSpan implements Medium.
func (mv *MultiVolume) volumeSpan(vol int) Region {
	return Region{Start: mv.prefix[vol], N: int64(mv.prefix[vol+1] - mv.prefix[vol])}
}

// read implements Medium, splitting across volumes as needed.
func (mv *MultiVolume) read(addr Addr, n int64) ([]block.Block, error) {
	if addr < 0 || n < 0 || addr+Addr(n) > mv.EOD() {
		return nil, fmt.Errorf("tape: read [%d,%d) beyond EOD %d on %q", addr, addr+Addr(n), mv.EOD(), mv.name)
	}
	out := make([]block.Block, 0, n)
	for n > 0 {
		vol := mv.volumeOf(addr)
		local := addr - mv.prefix[vol]
		take := n
		if rest := int64(mv.vols[vol].Capacity()) - int64(local); take > rest {
			take = rest
		}
		blks, err := mv.vols[vol].read(local, take)
		if err != nil {
			return nil, err
		}
		out = append(out, blks...)
		addr += Addr(take)
		n -= take
	}
	return out, nil
}

// append implements Medium, filling volumes in order.
func (mv *MultiVolume) append(blks []block.Block) (Region, error) {
	if int64(len(blks)) > mv.Free() {
		return Region{}, fmt.Errorf("%w: %q has %d free, need %d", ErrTapeFull, mv.name, mv.Free(), len(blks))
	}
	start := mv.EOD()
	rest := blks
	for len(rest) > 0 {
		vol := mv.volumeOf(mv.EOD())
		v := mv.vols[vol]
		take := int64(len(rest))
		if free := v.Free(); take > free {
			take = free
		}
		if take == 0 {
			return Region{}, fmt.Errorf("tape: volume set %q: no space on volume %d", mv.name, vol)
		}
		if _, err := v.append(rest[:take]); err != nil {
			return Region{}, err
		}
		rest = rest[take:]
	}
	return Region{Start: start, N: int64(len(blks))}, nil
}

// writeAt implements Medium, splitting across volumes. Overwrites may
// not leave gaps, and a write that does not fit changes nothing.
func (mv *MultiVolume) writeAt(addr Addr, blks []block.Block) error {
	if addr < 0 || addr > mv.EOD() {
		return fmt.Errorf("tape: write at %d beyond EOD %d on %q", addr, mv.EOD(), mv.name)
	}
	if end := int64(addr) + int64(len(blks)); end > mv.Capacity() {
		return fmt.Errorf("%w: %q write [%d,%d) beyond capacity %d", ErrTapeFull, mv.name, addr, end, mv.Capacity())
	}
	rest := blks
	for len(rest) > 0 {
		vol := mv.volumeOf(addr)
		local := addr - mv.prefix[vol]
		take := int64(len(rest))
		if room := int64(mv.vols[vol].Capacity()) - int64(local); take > room {
			take = room
		}
		if err := mv.vols[vol].writeAt(local, rest[:take]); err != nil {
			return err
		}
		rest = rest[take:]
		addr += Addr(take)
	}
	return nil
}

// ReadSetup implements Medium.
func (mv *MultiVolume) ReadSetup(r Region) ([]block.Block, error) {
	return mv.read(r.Start, r.N)
}

// AppendSetup implements Medium.
func (mv *MultiVolume) AppendSetup(blks []block.Block) (Region, error) {
	return mv.append(blks)
}
