package join

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/sim"
)

// mapTable is the build side as it was before the flat table: a map
// from key to the tuples carrying it, in insertion order. It is the
// reference the flat table is tested against.
type mapTable map[uint64][]block.Tuple

func (m mapTable) addBlocks(blks []block.Block, keep keepFn) {
	for _, blk := range blks {
		_, tuples := blk.MustDecode()
		for _, t := range tuples {
			if keep == nil || keep(t) {
				m[t.Key] = append(m[t.Key], t)
			}
		}
	}
}

// chain returns the flat table's tuples for key, in probe order.
func (h *hashTable) chain(key uint64) []block.Tuple {
	var out []block.Tuple
	for i := h.first(key); i != 0; i = h.next[i] {
		out = append(out, h.tuples[i])
	}
	return out
}

// randomBlocks packs n tuples with keys drawn from [0, keySpace) and
// payloads that identify the tuple, so order within a key is checkable.
func randomBlocks(rng *rand.Rand, n, perBlock int, keySpace uint64) []block.Block {
	var blks []block.Block
	bld := block.NewBuilder(1)
	for i := 0; i < n; i++ {
		var p [4]byte
		binary.LittleEndian.PutUint32(p[:], uint32(i))
		bld.Append(block.Tuple{Key: rng.Uint64() % keySpace, Payload: p[:rng.Intn(5)]})
		if bld.Len() == perBlock {
			blks = append(blks, bld.Finish())
		}
	}
	if bld.Len() > 0 {
		blks = append(blks, bld.Finish())
	}
	return blks
}

// matchesMap fails t unless h holds exactly ref's tuples: the same
// tuples per key in the same (insertion) order, and the same len.
func matchesMap(t *testing.T, h *hashTable, ref mapTable) {
	t.Helper()
	total := 0
	for key, want := range ref {
		total += len(want)
		got := h.chain(key)
		if len(got) != len(want) {
			t.Fatalf("key %d: %d tuples, want %d", key, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != key || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("key %d: tuple %d out of insertion order", key, i)
			}
		}
	}
	if h.len() != total {
		t.Fatalf("len() = %d, want %d", h.len(), total)
	}
	if 8*len(h.filter) != len(h.slots) {
		t.Fatalf("prefilter of %d words for %d slots, want 8 bits per slot", len(h.filter), len(h.slots))
	}
}

// TestFlatTableMatchesMapSemantics is the differential test of the
// flat table against the old map: same tuples per key in the same
// (insertion) order, same misses, same len — with heavy duplication,
// with unique keys, with a filtered build, when the sizing hint is
// exact, and when the build grows far past a zero or too-small hint,
// which rebuilds the key prefilter. The pooled-table cases reuse one
// table across builds that shrink and grow, probe empty tables, and
// check that a released table pins no payload.
func TestFlatTableMatchesMapSemantics(t *testing.T) {
	evenKeys := func(t block.Tuple) bool { return t.Key%2 == 0 }
	for _, tc := range []struct {
		name     string
		n        int
		keySpace uint64
		hint     int64 // blocks passed to newHashTable
		keep     keepFn
	}{
		{"duplicates, exact hint", 5000, 37, 50, nil},
		{"unique-ish keys, exact hint", 5000, 1 << 40, 50, nil},
		{"growth from a zero hint", 5000, 600, 0, nil},
		{"growth past a small hint", 20000, 3000, 2, nil},
		{"filtered build", 5000, 200, 50, evenKeys},
		{"sequential keys collide in linear probing", 4096, 4096, 41, nil},
		{"empty build", 0, 10, 0, nil},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n) + int64(tc.keySpace)))
			blks := randomBlocks(rng, tc.n, 100, tc.keySpace)
			ref := mapTable{}
			ref.addBlocks(blks, tc.keep)
			h := newHashTable(tc.hint, 100)
			// Build in two calls, as CDT-NB/DB does.
			half := len(blks) / 2
			if err := h.addBlocks(blks[:half], tc.keep); err != nil {
				t.Fatal(err)
			}
			if err := h.addBlocks(blks[half:], tc.keep); err != nil {
				t.Fatal(err)
			}
			matchesMap(t, h, ref)
			for i := 0; i < 2000; i++ {
				key := rng.Uint64()
				if _, ok := ref[key]; !ok && h.first(key) != 0 {
					t.Fatalf("key %d absent from the build but found", key)
				}
			}
			if 2*len(h.tuples) > len(h.slots)+2 {
				t.Fatalf("%d tuples in %d slots: more than half full", h.len(), len(h.slots))
			}
			h.release()
		})
	}

	t.Run("pooled table reused across shrinking and growing builds", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		h := newHashTable(0, 100)
		defer h.release()
		var earlier []uint64
		for round, b := range []struct {
			n    int
			hint int64 // blocks; below n/100 the build outgrows its plan
		}{{5000, 50}, {300, 3}, {0, 0}, {20000, 20}, {40, 200}, {9000, 1}} {
			// Each round's keys live in their own range, so any key of
			// an earlier round found now is a stale slot or prefilter bit.
			base := uint64(round+1) << 40
			blks := randomBlocks(rng, b.n, 100, 4*uint64(b.n)+1)
			for i, blk := range blks {
				bld := block.NewBuilder(1)
				_, tuples := blk.MustDecode()
				for _, tu := range tuples {
					bld.Append(block.Tuple{Key: base + tu.Key, Payload: tu.Payload})
				}
				blks[i] = bld.Finish()
			}
			ref := mapTable{}
			ref.addBlocks(blks, nil)
			// release then newHashTable, kept on this one table rather
			// than whichever the pool hands back.
			clear(h.tuples)
			h.reset(int(b.hint) * 100)
			if err := h.addBlocks(blks, nil); err != nil {
				t.Fatal(err)
			}
			matchesMap(t, h, ref)
			for _, key := range earlier {
				if h.first(key) != 0 {
					t.Fatalf("round %d: key %d of an earlier build found", round, key)
				}
			}
			for key := range ref {
				earlier = append(earlier, key)
			}
		}
	})

	t.Run("probe of an empty table", func(t *testing.T) {
		for _, hint := range []int64{0, 1, 64} {
			h := newHashTable(hint, 100)
			for _, key := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
				if i := h.first(key); i != 0 {
					t.Fatalf("hint %d: empty table finds key %d at %d", hint, key, i)
				}
			}
			h.release()
		}
	})

	t.Run("released table pins no payload", func(t *testing.T) {
		blks := randomBlocks(rand.New(rand.NewSource(9)), 3000, 100, 500)
		h := newHashTable(4, 100) // outgrows its plan, so tuples reallocate
		if err := h.addBlocks(blks, nil); err != nil {
			t.Fatal(err)
		}
		held := h.tuples[:cap(h.tuples)]
		h.release()
		for i, tu := range held {
			if tu.Payload != nil {
				t.Fatalf("released table still holds the payload of tuple %d", i)
			}
		}
	})
}

// TestFlatTableCorruptBlockAddsNothing: a block with broken framing
// fails the build with the decoder's typed error before any of its
// tuples is inserted — even under a valid checksum, because the build
// checks framing itself and leaves only the CRC to delivery
// (verifyBlocks).
func TestFlatTableCorruptBlockAddsNothing(t *testing.T) {
	blks := randomBlocks(rand.New(rand.NewSource(1)), 200, 100, 50)
	bad := append(append(block.Block(nil), blks[1]...), 0, 0) // trailing bytes
	binary.LittleEndian.PutUint32(bad[8:12], crc32.ChecksumIEEE(bad[12:]))
	if err := bad.Verify(); err != nil {
		t.Fatalf("resealed block fails its checksum: %v", err)
	}
	h := newHashTable(2, 100)
	if err := h.addBlocks([]block.Block{blks[0], bad}, nil); !errors.Is(err, block.ErrTruncated) {
		t.Fatalf("broken framing: err %v, want ErrTruncated", err)
	}
	if h.len() != 100 {
		t.Fatalf("len() = %d after a good and a corrupt block, want 100", h.len())
	}
}

// TestPairHashIsFNV1a pins the inlined digest to hash/fnv fed the same
// bytes, over random keys and payloads (empty ones included), so
// OutputHash cannot drift between versions.
func TestPairHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := func(r, s block.Tuple) uint64 {
		h := fnv.New64a()
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], r.Key)
		h.Write(k[:])
		h.Write(r.Payload)
		binary.LittleEndian.PutUint64(k[:], s.Key)
		h.Write(k[:])
		h.Write(s.Payload)
		return h.Sum64()
	}
	for i := 0; i < 5000; i++ {
		rp, sp := make([]byte, rng.Intn(40)), make([]byte, rng.Intn(40))
		if i%7 == 0 {
			rp = nil
		}
		if i%11 == 0 {
			sp = []byte{}
		}
		rng.Read(rp)
		rng.Read(sp)
		r, s := block.Tuple{Key: rng.Uint64(), Payload: rp}, block.Tuple{Key: rng.Uint64(), Payload: sp}
		if got, want := pairHash(r, s), ref(r, s); got != want {
			t.Fatalf("pairHash(%v, %v) = %016x, hash/fnv says %016x", r, s, got, want)
		}
	}
}

// BenchmarkHashTableBuildProbe builds a table over one memory load of
// dense blocks (16 blocks of 2048 tuples) and probes it once per key of
// a relation four times as large, a quarter of the probes hitting.
func BenchmarkHashTableBuildProbe(b *testing.B) {
	const blocks, perBlock = 16, 2048
	rng := rand.New(rand.NewSource(1))
	blks := randomBlocks(rng, blocks*perBlock, perBlock, 4*blocks*perBlock)
	probes := make([]uint64, 4*blocks*perBlock)
	for i := range probes {
		probes[i] = rng.Uint64() % (4 * blocks * perBlock)
	}
	var bytesIn int64
	for _, blk := range blks {
		bytesIn += int64(len(blk))
	}
	b.ReportAllocs()
	b.SetBytes(bytesIn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := newHashTable(blocks, perBlock)
		if err := h.addBlocks(blks, nil); err != nil {
			b.Fatal(err)
		}
		for _, key := range probes {
			for j := h.first(key); j != 0; j = h.next[j] {
				benchPairs++
			}
		}
	}
}

// BenchmarkHashTableProbe times probes alone, the build excluded, at
// the benchmark's two solo geometries: hit is one memory load of dense
// blocks (28 672 tuples, key space 2^17, as solo-sim-match), where
// about a fifth of the probes find a key; miss is a sparse load
// (50 176 tuples, key space 2^30, as solo-file-scan), where nearly
// every probe misses. It reports ns/probe.
func BenchmarkHashTableProbe(b *testing.B) {
	for _, g := range []struct {
		name     string
		tuples   int
		keySpace uint64
	}{
		{"hit", 28672, 1 << 17},
		{"miss", 50176, 1 << 30},
	} {
		b.Run(g.name, func(b *testing.B) {
			const perBlock = 512
			rng := rand.New(rand.NewSource(1))
			blks := randomBlocks(rng, g.tuples, perBlock, g.keySpace)
			h := newHashTable(int64(len(blks)), perBlock)
			defer h.release()
			if err := h.addBlocks(blks, nil); err != nil {
				b.Fatal(err)
			}
			probes := make([]uint64, 1<<16)
			for i := range probes {
				probes[i] = rng.Uint64() % g.keySpace
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := h.first(probes[i&(len(probes)-1)]); j != 0; j = h.next[j] {
					benchPairs++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
		})
	}
}

// partitionTuples returns n tuples with keys drawn from [0, keySpace)
// and 8-byte payloads, the batch workloads' tuple shape.
func partitionTuples(n int, keySpace uint64) []block.Tuple {
	rng := rand.New(rand.NewSource(1))
	tuples := make([]block.Tuple, n)
	for i := range tuples {
		var p [8]byte
		binary.LittleEndian.PutUint64(p[:], uint64(i))
		tuples[i] = block.Tuple{Key: rng.Uint64() % keySpace, Payload: p[:]}
	}
	return tuples
}

// TestPartitionFlushAllocatesRunOnce feeds one bucket k·writeBuf
// blocks' worth of tuples: each block costs its encoding and each
// flush one run, allocated at writeBuf capacity. A run regrown by
// doubling from nil costs about log2(writeBuf) more per flush.
func TestPartitionFlushAllocatesRunOnce(t *testing.T) {
	const writeBuf, perBlock, flushes = 8, 4, 4
	const blocks = flushes * writeBuf
	tuples := partitionTuples(blocks*perBlock, 1<<20)
	var flushed, runs int
	pt := newPartitioner(1, writeBuf, perBlock, 1, func(_ *sim.Proc, _ int, blks []block.Block) error {
		flushed += len(blks)
		runs++
		return nil
	})
	allocs := testing.AllocsPerRun(10, func() {
		for _, tp := range tuples {
			if err := pt.add(nil, tp); err != nil {
				t.Fatal(err)
			}
		}
	})
	if flushed != 11*blocks || runs != 11*flushes {
		t.Fatalf("flushed %d blocks in %d runs, want %d in %d", flushed, runs, 11*blocks, 11*flushes)
	}
	if limit := float64(blocks + flushes + 2); allocs > limit {
		t.Fatalf("%v allocs per %d blocks in %d flushes, want <= %v", allocs, blocks, flushes, limit)
	}
}

// BenchmarkPartition routes a relation through a partitioner into 16
// buckets, flushing every writeBuf blocks to a sink that drops them:
// sparse is batch-sched's 4-tuple blocks, dense 1024-tuple blocks. It
// reports ns/tuple.
func BenchmarkPartition(b *testing.B) {
	for _, g := range []struct {
		name     string
		tuples   int
		perBlock int
		writeBuf int64
	}{
		{"sparse", 1 << 14, 4, 8},
		{"dense", 1 << 17, 1024, 2},
	} {
		b.Run(g.name, func(b *testing.B) {
			const parts = 16
			tuples := partitionTuples(g.tuples, 1<<30)
			drop := func(*sim.Proc, int, []block.Block) error { return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt := newPartitioner(parts, g.writeBuf, g.perBlock, 1, drop)
				for _, tp := range tuples {
					if err := pt.add(nil, tp); err != nil {
						b.Fatal(err)
					}
				}
				if err := pt.finish(nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.tuples), "ns/tuple")
		})
	}
}
