package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	b := NewBuilder(7)
	in := []Tuple{
		{Key: 1, Payload: []byte("alpha")},
		{Key: 2, Payload: nil},
		{Key: 1 << 63, Payload: []byte{0, 1, 2, 255}},
	}
	for _, tp := range in {
		b.Append(tp)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	blk := b.Finish()
	tag, out, err := blk.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if tag != 7 {
		t.Fatalf("tag = %d, want 7", tag)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d tuples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || !bytes.Equal(out[i].Payload, in[i].Payload) {
			t.Fatalf("tuple %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestBuilderResetsAfterFinish(t *testing.T) {
	b := NewBuilder(1)
	b.Append(Tuple{Key: 1})
	b.Finish()
	if b.Len() != 0 {
		t.Fatalf("Len after Finish = %d, want 0", b.Len())
	}
	blk := b.Finish()
	_, tuples, err := blk.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 {
		t.Fatalf("empty block decoded %d tuples", len(tuples))
	}
}

func TestTag(t *testing.T) {
	b := NewBuilder(42)
	b.Append(Tuple{Key: 9})
	blk := b.Finish()
	tag, err := blk.Tag()
	if err != nil || tag != 42 {
		t.Fatalf("Tag = %d, %v", tag, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	b := NewBuilder(1)
	b.Append(Tuple{Key: 5, Payload: []byte("hello")})
	blk := b.Finish()

	t.Run("truncated header", func(t *testing.T) {
		if _, _, err := Block(blk[:4]).Decode(); err == nil {
			t.Fatal("want error")
		}
		if _, err := Block(blk[:4]).Tag(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append(Block(nil), blk...)
		bad[0] = 'X'
		if _, _, err := bad.Decode(); err != ErrBadMagic {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append(Block(nil), blk...)
		bad[2] = 99
		if _, _, err := bad.Decode(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("corrupt body", func(t *testing.T) {
		bad := append(Block(nil), blk...)
		bad[len(bad)-1] ^= 0xff
		if _, _, err := bad.Decode(); err != ErrBadChecksum {
			t.Fatalf("err = %v, want ErrBadChecksum", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		bad := append(Block(nil), blk[:len(blk)-2]...)
		if _, _, err := bad.Decode(); err == nil {
			t.Fatal("want error")
		}
	})
}

func TestMustDecodePanicsOnCorruption(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Block([]byte{1, 2, 3}).MustDecode()
}

func TestOversizePayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(1).Append(Tuple{Payload: make([]byte, maxPayload+1)})
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(keys []uint64, payloads [][]byte, tag byte) bool {
		b := NewBuilder(tag)
		n := len(keys)
		if len(payloads) < n {
			n = len(payloads)
		}
		want := make([]Tuple, 0, n)
		for i := 0; i < n; i++ {
			p := payloads[i]
			if len(p) > 1024 {
				p = p[:1024]
			}
			tp := Tuple{Key: keys[i], Payload: p}
			want = append(want, tp)
			b.Append(tp)
		}
		gotTag, got, err := b.Finish().Decode()
		if err != nil || gotTag != tag || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Payload, want[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEachMatchesDecode: on a valid block Each yields exactly Decode's
// tuples in order; on every kind of invalid block both fail with the
// same error and Each has made no callback.
func TestEachMatchesDecode(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 50; i++ {
		b.Append(Tuple{Key: uint64(i * i), Payload: bytes.Repeat([]byte{byte(i)}, i%7)})
	}
	good := b.Finish()
	mutate := func(f func(Block) Block) Block { return f(append(Block(nil), good...)) }
	// reseal recomputes the checksum, so only the framing is wrong.
	reseal := func(blk Block) Block {
		binary.LittleEndian.PutUint32(blk[8:12], crc32.ChecksumIEEE(blk[headerSize:]))
		return blk
	}
	for _, tc := range []struct {
		name string
		blk  Block
		want error // nil = valid
	}{
		{"valid", good, nil},
		{"empty", NewBuilder(1).Finish(), nil},
		{"truncated header", good[:headerSize-1], ErrTruncated},
		{"bad magic", mutate(func(b Block) Block { b[1] = 'X'; return b }), ErrBadMagic},
		{"bad version", mutate(func(b Block) Block { b[2] = 9; return b }), ErrBadVersion},
		{"bad crc", mutate(func(b Block) Block { b[len(b)-1] ^= 1; return b }), ErrBadChecksum},
		{"truncated body", mutate(func(b Block) Block { return b[:len(b)-3] }), ErrBadChecksum},
		{"truncated body, checksum valid", mutate(func(b Block) Block { return reseal(b[:len(b)-3]) }), ErrTruncated},
		{"truncated mid-header of a tuple", mutate(func(b Block) Block { return reseal(b[:headerSize+5]) }), ErrTruncated},
		{"trailing bytes", mutate(func(b Block) Block { return reseal(append(b, 0, 0, 0)) }), ErrTruncated},
		{"count too small", mutate(func(b Block) Block { b[4]--; return b }), ErrTruncated},
		{"count too large", mutate(func(b Block) Block { b[4]++; return b }), ErrTruncated},
	} {
		_, want, decErr := tc.blk.Decode()
		var got []Tuple
		eachErr := tc.blk.Each(func(t Tuple) { got = append(got, t) })
		if tc.want == nil {
			if decErr != nil || eachErr != nil {
				t.Fatalf("%s: Decode err %v, Each err %v", tc.name, decErr, eachErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: Each yielded %d tuples, Decode %d", tc.name, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("%s: tuple %d differs", tc.name, i)
				}
			}
			continue
		}
		if !errors.Is(decErr, tc.want) || !errors.Is(eachErr, tc.want) {
			t.Fatalf("%s: Decode err %v, Each err %v, want %v", tc.name, decErr, eachErr, tc.want)
		}
		if len(got) != 0 {
			t.Fatalf("%s: Each made %d callbacks before failing", tc.name, len(got))
		}
	}
}

// TestEachVerifiedSkipsOnlyTheChecksum: EachVerified accepts a block
// whose body no longer matches its checksum, but still rejects bad
// headers and broken framing — including under a valid checksum —
// before the first callback.
func TestEachVerifiedSkipsOnlyTheChecksum(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 20; i++ {
		b.Append(Tuple{Key: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, i%5)})
	}
	good := b.Finish()
	mutate := func(f func(Block) Block) Block { return f(append(Block(nil), good...)) }
	reseal := func(blk Block) Block {
		binary.LittleEndian.PutUint32(blk[8:12], crc32.ChecksumIEEE(blk[headerSize:]))
		return blk
	}
	for _, tc := range []struct {
		name string
		blk  Block
		want error // nil = iterates
	}{
		{"valid", good, nil},
		{"bad crc, framing intact", mutate(func(b Block) Block { b[len(b)-1] ^= 1; return b }), nil},
		{"truncated header", good[:headerSize-1], ErrTruncated},
		{"bad magic", mutate(func(b Block) Block { b[0] = 'X'; return b }), ErrBadMagic},
		{"bad version", mutate(func(b Block) Block { b[2] = 9; return b }), ErrBadVersion},
		{"truncated body, checksum valid", mutate(func(b Block) Block { return reseal(b[:len(b)-3]) }), ErrTruncated},
		{"trailing bytes, checksum valid", mutate(func(b Block) Block { return reseal(append(b, 0, 0)) }), ErrTruncated},
		{"count too large, checksum valid", mutate(func(b Block) Block { b[4]++; return b }), ErrTruncated},
	} {
		calls := 0
		err := tc.blk.EachVerified(func(Tuple) { calls++ })
		if !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Fatalf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == nil && calls != 20 {
			t.Fatalf("%s: %d callbacks, want 20", tc.name, calls)
		}
		if tc.want != nil && calls != 0 {
			t.Fatalf("%s: %d callbacks before failing", tc.name, calls)
		}
	}
}

// benchBlock is a dense block like the benchmark's match workload:
// 2048 tuples of 8 payload bytes.
func benchBlock() Block {
	b := NewBuilder(1)
	for i := 0; i < 2048; i++ {
		b.Append(Tuple{Key: uint64(i) * 2654435761, Payload: []byte("payload8")})
	}
	return b.Finish()
}

var benchKeySum uint64

func BenchmarkBlockDecode(b *testing.B) {
	blk := benchBlock()
	b.ReportAllocs()
	b.SetBytes(int64(len(blk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tuples, err := blk.Decode()
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tuples {
			benchKeySum += t.Key
		}
	}
}

func BenchmarkBlockEach(b *testing.B) {
	blk := benchBlock()
	b.ReportAllocs()
	b.SetBytes(int64(len(blk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blk.Each(func(t Tuple) { benchKeySum += t.Key }); err != nil {
			b.Fatal(err)
		}
	}
}
