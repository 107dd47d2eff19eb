package filedev

// The record framing's buffer ownership: write frames come from a pool
// and go back only after their transfer succeeded, read buffers come
// from the backend's pool of recycled ones, and no sequence of appends,
// overwrites, reads and OS-level damage makes a read return wrong bytes
// silently.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/sim"
)

// payload returns n bytes of a pattern seeded by tag. The movers frame
// and checksum payloads without decoding them, so any bytes will do.
func payload(tag byte, n int) block.Block {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*7)
	}
	return b
}

// storeLoop runs op b.N times on one proc over a file-backed store.
// Every recycle ops it frees the scratch file and creates a fresh one,
// so the OS file stays a few MB long however large b.N grows. The
// timer and allocation counters start after warm ops.
func storeLoop(b *testing.B, recycle, warm int, op func(p *sim.Proc, f device.File) error) {
	bk := New(b.TempDir())
	k := sim.NewKernel()
	st, err := bk.NewStore(k, device.StoreConfig{NumDisks: 2, BlocksPerDisk: 1 << 10, AggregateRate: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	k.Spawn("bench", func(p *sim.Proc) {
		var f device.File
		for i := -warm; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if (i+warm)%recycle == 0 {
				if f != nil {
					f.Free()
				}
				if f, err = st.Create("bench", nil); err != nil {
					b.Error(err)
					return
				}
			}
			if err := op(p, f); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestAppendAllocatesNoFrame appends one 64 KB block per op through a
// file-backed store: the record frame comes from the pool, so an op
// allocates only its bookkeeping, far less than the block it moves.
func TestAppendAllocatesNoFrame(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs a one-second benchmark; the race detector drops pooled frames")
	}
	blk := []block.Block{payload(1, block.VirtualSize)}
	res := testing.Benchmark(func(b *testing.B) {
		storeLoop(b, 32, 64, func(p *sim.Proc, f device.File) error { return f.Append(p, blk) })
	})
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if got := res.AllocedBytesPerOp(); got >= 8<<10 {
		t.Fatalf("one 64 KB block Append allocates %d B/op, want < 8 KB", got)
	}
}

// TestFileReadReusesRecycledBuffers reads a run of records, hands it
// back and reads the same run again, over and over: once the pool is
// warm, a read allocates only its bookkeeping, no record buffer.
func TestFileReadReusesRecycledBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	r, err := New(t.TempDir()).createRecFile(filepath.Join(t.TempDir(), "rec.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	const n = 16
	blks := make([]block.Block, n)
	for i := range blks {
		blks[i] = payload(byte(i), 4<<10)
	}
	w, err := r.planAppend(0, blks)
	if err == nil {
		err = r.execWrites(w.ops)
	}
	if err != nil {
		t.Fatal(err)
	}
	ops, err := r.planRead(0, n)
	if err != nil {
		t.Fatal(err)
	}
	var readErr error
	allocs := testing.AllocsPerRun(50, func() {
		got, err := r.execReads(ops)
		if err != nil || !bytes.Equal(got[n-1], blks[n-1]) {
			readErr = fmt.Errorf("read back wrong bytes (%v)", err)
			return
		}
		r.bufs.put(got)
	})
	if readErr != nil {
		t.Fatal(readErr)
	}
	// The out slice is the one allocation a read keeps; allow a few
	// buffers the runtime may take back from the pool mid-run.
	if allocs > n/4 {
		t.Fatalf("a recycled %d-record read allocates %.1f times, want at most %d", n, allocs, n/4)
	}
}

// BenchmarkRecFileAppendRead writes one 8-block request of full-size
// blocks through a file-backed store, reads it back and hands the read
// back with Recycle: framing, CRC, both pools, worker round trips and
// the positioned syscalls of both directions. Run with -benchmem.
func BenchmarkRecFileAppendRead(b *testing.B) {
	blks := make([]block.Block, 8)
	for i := range blks {
		blks[i] = payload(byte(i), block.VirtualSize)
	}
	b.SetBytes(2 * int64(len(blks)) * block.VirtualSize)
	b.ReportAllocs()
	storeLoop(b, 4, 4, func(p *sim.Proc, f device.File) error {
		off := f.Len()
		if err := f.Append(p, blks); err != nil {
			return err
		}
		got, err := f.ReadAt(p, off, int64(len(blks)))
		if err == nil && !bytes.Equal(got[7], blks[7]) {
			err = errors.New("read back wrong bytes")
		}
		f.Recycle(got)
		return err
	})
}

// TestRespoolMatchesTransferFraming respools blocks that span several
// frame chunks, one of them larger than a chunk, and writes the same
// blocks to a second file as one transfer: both OS files must hold the
// same bytes, and only the transfer counts toward the sync interval.
func TestRespoolMatchesTransferFraming(t *testing.T) {
	var blks []block.Block
	for i := 0; i < 20; i++ {
		blks = append(blks, payload(byte(i), block.VirtualSize-i))
	}
	blks = append(blks, payload(99, frameChunk+frameChunk/2), payload(100, 13))
	bk := &Backend{syncEvery: 1 << 40}
	dir := t.TempDir()
	mount, err := bk.createRecFile(filepath.Join(dir, "mount.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer mount.close()
	xfer, err := bk.createRecFile(filepath.Join(dir, "xfer.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer xfer.close()
	if err := mount.respool(blks); err != nil {
		t.Fatal(err)
	}
	w, err := xfer.planAppend(0, blks)
	if err != nil {
		t.Fatal(err)
	}
	if err := xfer.execWrites(w.ops); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(filepath.Join(dir, "mount.dat"))
	b, errB := os.ReadFile(filepath.Join(dir, "xfer.dat"))
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) || mount.end != xfer.end || int64(len(a)) != mount.end {
		t.Fatalf("respool wrote %d bytes (end %d), transfer %d (end %d), equal %v",
			len(a), mount.end, len(b), xfer.end, bytes.Equal(a, b))
	}
	if mount.sync.dirty != 0 || xfer.sync.dirty != xfer.end {
		t.Fatalf("dirty bytes: respool %d, transfer %d of %d", mount.sync.dirty, xfer.sync.dirty, xfer.end)
	}
	ops, err := mount.planRead(0, int64(len(blks)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mount.execReads(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blks {
		if !bytes.Equal(got[i], blks[i]) {
			t.Fatalf("record %d read back wrong", i)
		}
	}
}

// fuzzSizes are the record lengths FuzzRecFile picks from: empty,
// tiny, a paper block, sizes that straddle a frame chunk after a few
// records, and one record larger than a chunk (never pooled).
var fuzzSizes = []int{0, 1, 13, 4096, block.VirtualSize, 300 << 10, frameChunk - recHeader, frameChunk + 5}

// FuzzRecFile drives one record file through a respool and a random
// sequence of appends, overwrites, reads, single-byte damage and
// truncation of the OS file. A read must return exactly the bytes last
// written at each position, or an error wrapping fault.ErrCorrupt —
// and that error only when a record it covers was damaged.
func FuzzRecFile(f *testing.F) {
	f.Add([]byte{0, 3, 0, 2, 1, 2, 0, 3})
	f.Add([]byte{2, 0, 0, 4, 5, 2, 0, 1, 3, 9, 1, 2, 1, 1})
	f.Add([]byte{1, 5, 0, 6, 7, 3, 200, 4, 2, 1, 0, 2, 0, 5})
	f.Add([]byte{0, 9, 1, 0, 2, 4, 40, 40, 2, 0, 9, 0, 7, 7, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		path := filepath.Join(t.TempDir(), "rec.dat")
		bk := &Backend{Sync: SyncPolicy(next() % 3), syncEvery: 1 << 20}
		r, err := bk.createRecFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		raw, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()

		var want []block.Block     // last bytes written at each position
		damage := map[int64]byte{} // net XOR applied to each file offset
		var holes [][2]int64       // file ranges lost to a truncation
		tag := byte(0)
		blocks := func(n int) []block.Block {
			out := make([]block.Block, n)
			for i := range out {
				sizes := fuzzSizes
				if r.end > 8<<20 {
					sizes = sizes[:5] // keep one input's file small
				}
				tag++
				out[i] = payload(tag, sizes[next()%len(sizes)])
			}
			return out
		}
		damaged := func(pos int64) bool {
			lo := r.index[pos] + recHeader
			hi := lo + int64(r.lens[pos])
			for off, x := range damage {
				if x != 0 && off >= lo && off < hi {
					return true
				}
			}
			for _, h := range holes {
				if lo < h[1] && hi > h[0] {
					return true
				}
			}
			return false
		}

		want = blocks(next() % 4)
		if err := r.respool(want); err != nil {
			t.Fatal(err)
		}
		for steps := 0; len(data) > 0 && steps < 32; steps++ {
			switch next() % 5 {
			case 0, 1: // append at the end, or overwrite from a position
				pos := int64(len(want))
				if next()%2 == 1 && len(want) > 0 {
					pos = int64(next() % len(want))
				}
				blks := blocks(1 + next()%3)
				w, err := r.planAppend(pos, blks)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.execWrites(w.ops); err != nil {
					t.Fatal(err)
				}
				w.release()
				for i, blk := range blks {
					if p := int(pos) + i; p < len(want) {
						want[p] = blk
					} else {
						want = append(want, blk)
					}
				}
			case 2: // read a range
				if len(want) == 0 {
					continue
				}
				off := next() % len(want)
				n := 1 + next()%(len(want)-off)
				ops, err := r.planRead(int64(off), int64(n))
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.execReads(ops)
				if err != nil {
					if !errors.Is(err, fault.ErrCorrupt) {
						t.Fatalf("read [%d,%d): %v, want nil or fault.ErrCorrupt", off, off+n, err)
					}
					hit := false
					for p := off; p < off+n; p++ {
						hit = hit || damaged(int64(p))
					}
					if !hit {
						t.Fatalf("read [%d,%d) of undamaged records: %v", off, off+n, err)
					}
					continue
				}
				for i, blk := range got {
					if !bytes.Equal(blk, want[off+i]) {
						t.Fatalf("read [%d,%d): record %d returned wrong bytes without an error", off, off+n, off+i)
					}
				}
			case 3: // flip one byte of the OS file
				if r.end == 0 {
					continue
				}
				off := int64(next()<<8|next()) * r.end / (1 << 16)
				x := byte(1 + next()%255)
				var b [1]byte
				if _, err := raw.ReadAt(b[:], off); err != nil {
					continue // inside a truncated tail: nothing to flip
				}
				b[0] ^= x
				if _, err := raw.WriteAt(b[:], off); err != nil {
					t.Fatal(err)
				}
				damage[off] ^= x
			case 4: // truncate the OS file
				if r.end == 0 {
					continue
				}
				cut := int64(next()) * r.end / 256
				if err := raw.Truncate(cut); err != nil {
					t.Fatal(err)
				}
				holes = append(holes, [2]int64{cut, r.end})
			}
		}
	})
}
