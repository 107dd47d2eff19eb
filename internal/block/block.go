// Package block defines the unit of storage accounting and transfer in
// the tertiary join system: the paper block.
//
// All device space and bandwidth accounting is done in paper blocks of
// VirtualSize bytes (64 KB), matching the transfer-only cost model of
// the paper. The number of real tuples carried per block is a density
// knob (relation.Config.TuplesPerBlock): experiments at paper scale use
// sparse blocks so a simulated 10 GB relation moves megabytes of real
// tuple data, while correctness tests use dense blocks. Density never
// changes timing — timing depends only on block counts.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// VirtualSize is the size of one paper block in bytes. Device transfer
// times are computed from virtual bytes = blocks * VirtualSize.
const VirtualSize = 64 * 1024

// Tuple is a relation tuple: a 64-bit join key plus an opaque payload.
type Tuple struct {
	Key     uint64
	Payload []byte
}

// maxPayload bounds payload length so it encodes in a uint16.
const maxPayload = 1<<16 - 1

// Block is an encoded block: a header followed by packed tuples. It is
// what the simulated devices store and move.
type Block []byte

// Encoding layout:
//
//	[0:2)   magic "TB"
//	[2:3)   version (1)
//	[3:4)   relation tag
//	[4:8)   tuple count, little endian
//	[8:12)  crc32 (IEEE) of the body
//	[12:)   body: per tuple key(8) payloadLen(2) payload
const (
	headerSize = 12
	magic0     = 'T'
	magic1     = 'B'
	version    = 1
)

// Builder accumulates tuples and encodes them into a Block.
type Builder struct {
	tag  byte
	body []byte
	n    uint32
}

// NewBuilder returns a builder for blocks of the relation identified by
// tag.
func NewBuilder(tag byte) *Builder {
	return &Builder{tag: tag}
}

// TupleOverhead is the encoded size of a tuple beyond its payload.
const TupleOverhead = 8 + 2

// AppendTuple appends t's encoding — key, payload length, payload — to
// dst: the body format of a block, shared with the join's staging log.
func AppendTuple(dst []byte, t Tuple) []byte {
	if len(t.Payload) > maxPayload {
		panic(fmt.Sprintf("block: payload %d bytes exceeds max %d", len(t.Payload), maxPayload))
	}
	var kb [TupleOverhead]byte
	binary.LittleEndian.PutUint64(kb[0:8], t.Key)
	binary.LittleEndian.PutUint16(kb[8:10], uint16(len(t.Payload)))
	return append(append(dst, kb[:]...), t.Payload...)
}

// TupleAt decodes the tuple that AppendTuple encoded at off and returns
// the offset just past it. The payload aliases body. The caller vouches
// for the framing (a validated block body, a staging-log chunk).
func TupleAt(body []byte, off int) (Tuple, int) {
	end := off + TupleOverhead + int(binary.LittleEndian.Uint16(body[off+8:off+10]))
	return Tuple{Key: binary.LittleEndian.Uint64(body[off : off+8]), Payload: body[off+TupleOverhead : end]}, end
}

// Append adds a tuple to the block under construction.
func (b *Builder) Append(t Tuple) {
	b.body = AppendTuple(b.body, t)
	b.n++
}

// Len reports the number of tuples appended so far.
func (b *Builder) Len() int { return int(b.n) }

// Finish encodes the accumulated tuples into a Block and resets the
// builder for reuse.
func (b *Builder) Finish() Block {
	out := make([]byte, headerSize+len(b.body))
	out[0], out[1], out[2], out[3] = magic0, magic1, version, b.tag
	binary.LittleEndian.PutUint32(out[4:8], b.n)
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(b.body))
	copy(out[headerSize:], b.body)
	b.body = b.body[:0]
	b.n = 0
	return out
}

// Errors returned by Decode.
var (
	ErrBadMagic    = errors.New("block: bad magic")
	ErrBadVersion  = errors.New("block: unsupported version")
	ErrBadChecksum = errors.New("block: checksum mismatch")
	ErrTruncated   = errors.New("block: truncated")
)

// Tag returns the relation tag without fully decoding the block.
func (blk Block) Tag() (byte, error) {
	if len(blk) < headerSize {
		return 0, ErrTruncated
	}
	if blk[0] != magic0 || blk[1] != magic1 {
		return 0, ErrBadMagic
	}
	return blk[3], nil
}

// header validates magic, version and length, returning the relation
// tag, the declared tuple count and the body.
func (blk Block) header() (tag byte, n uint32, body []byte, err error) {
	if len(blk) < headerSize {
		return 0, 0, nil, ErrTruncated
	}
	if blk[0] != magic0 || blk[1] != magic1 {
		return 0, 0, nil, ErrBadMagic
	}
	if blk[2] != version {
		return 0, 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, blk[2])
	}
	return blk[3], binary.LittleEndian.Uint32(blk[4:8]), blk[headerSize:], nil
}

// check is header plus the body checksum.
func (blk Block) check() (tag byte, n uint32, body []byte, err error) {
	tag, n, body, err = blk.header()
	if err != nil {
		return 0, 0, nil, err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blk[8:12]) {
		return 0, 0, nil, ErrBadChecksum
	}
	return tag, n, body, nil
}

// validate is check — or, with sum false, header alone — plus a walk
// of the tuple framing: the body must hold exactly the declared number
// of well-formed tuples. It is the one validation routine behind
// Decode, Each and EachVerified.
func (blk Block) validate(sum bool) (tag byte, n uint32, body []byte, err error) {
	if sum {
		tag, n, body, err = blk.check()
	} else {
		tag, n, body, err = blk.header()
	}
	if err != nil {
		return 0, 0, nil, err
	}
	off := 0
	for i := uint32(0); i < n; i++ {
		if off+TupleOverhead > len(body) {
			return 0, 0, nil, ErrTruncated
		}
		off += TupleOverhead + int(binary.LittleEndian.Uint16(body[off+8:off+10]))
		if off > len(body) {
			return 0, 0, nil, ErrTruncated
		}
	}
	if off != len(body) {
		return 0, 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(body)-off)
	}
	return tag, n, body, nil
}

// Decode unpacks a block into its tuples, verifying the checksum.
// Payload slices alias the block's storage; callers that retain tuples
// past the block's lifetime must copy.
func (blk Block) Decode() (tag byte, tuples []Tuple, err error) {
	tag, n, body, err := blk.validate(true)
	if err != nil {
		return 0, nil, err
	}
	tuples = make([]Tuple, n)
	off := 0
	for i := range tuples {
		tuples[i], off = TupleAt(body, off)
	}
	return tag, tuples, nil
}

// Each calls fn for every tuple of the block in storage order without
// materialising a slice. The block is validated exactly as by Decode —
// header, checksum and tuple framing — before the first call, so on
// any error fn has not run. Payload slices alias the block's storage.
func (blk Block) Each(fn func(Tuple)) error { return blk.each(true, fn) }

// EachVerified is Each for a block whose checksum is already vouched
// for: just encoded by a Builder, or delivered by a device that
// vouches for it — a sim device's stored bytes, a file read that
// passed its frame CRC, or a read checked by Verify because a fault
// injector could have corrupted it. It validates the header and tuple
// framing, before the first call, but skips the checksum.
func (blk Block) EachVerified(fn func(Tuple)) error { return blk.each(false, fn) }

func (blk Block) each(sum bool, fn func(Tuple)) error {
	_, _, body, err := blk.validate(sum)
	if err != nil {
		return err
	}
	for off := 0; off < len(body); {
		var t Tuple
		t, off = TupleAt(body, off)
		fn(t)
	}
	return nil
}

// Verify checks the header and body checksum without building tuples.
// Device read paths use it to turn silent corruption into a typed
// error at the point of transfer — cheap enough to run on every block
// read back from disk or tape.
func (blk Block) Verify() error {
	_, _, _, err := blk.check()
	return err
}

// MustDecode decodes and panics on corruption: a convenience for tests
// that built the block themselves. Join operators never call it; to
// them a corrupt block is an input condition with a typed error.
func (blk Block) MustDecode() (byte, []Tuple) {
	tag, tuples, err := blk.Decode()
	if err != nil {
		panic(err)
	}
	return tag, tuples
}
