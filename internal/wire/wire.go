// Package wire provides the binary serialization used by the real-socket
// cluster runtime (internal/cluster) and the framing for its TCP protocol.
// It plays the role boost::serialization plays in the paper's prototype:
// a compact, deterministic encoding of tuples, identifiers, and provenance
// table rows.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"provcompress/internal/types"
)

// MaxFrameSize bounds a single frame; larger frames indicate corruption.
const MaxFrameSize = 64 << 20

// FormatVersion names the byte layout of everything this package and the
// cluster protocol put on a socket: delivery headers, the batch body
// (batch.go) and the frames inside it. Every delivery carries it in one
// byte; a receiver drops a delivery of another version instead of
// decoding it as its own. Bump it with any layout change — the cluster's
// golden-bytes test fails until you do. Version 1 was the unversioned
// fixed-width layout; version 2 also had a single-frame envelope beside
// the batch, which version 3 dropped: a lone frame is a batch of one.
const FormatVersion = 3

// Buffers come in two capacities: frame-sized ones for single tuple
// frames, which sit in transport queues by the thousand, and
// delivery-sized ones for batches and walk frames.
const (
	frameBufCap    = 256
	deliveryBufCap = 4 << 10
)

// The pools recycle encode/staging buffers for the ingest hot path; they
// store *[]byte slots so the slice headers themselves are recycled too
// (Put(&local) would heap-allocate a header per cycle). Empty slots
// released by a Get wait in slotPool for the next PutBuf, so a
// steady-state Get/Put cycle allocates nothing at all.
var (
	bufPool      = sync.Pool{New: func() any { return newBuf(deliveryBufCap) }}
	frameBufPool = sync.Pool{New: func() any { return newBuf(frameBufCap) }}
	slotPool     = sync.Pool{New: func() any { return new([]byte) }}
)

func newBuf(capacity int) *[]byte {
	b := make([]byte, 0, capacity)
	return &b
}

// maxPooledCap is the largest buffer the pool retains. Occasional giants
// (a partition handoff snapshot, a huge walk result) are left to the GC
// instead of pinning their memory in the pool forever.
const maxPooledCap = 1 << 20

// GetBuf returns an empty pooled buffer. Pass it to Encoder.SetBuf (or
// append to it directly) and hand it back with PutBuf once the bytes are
// no longer referenced; each cycle through the pool is an allocation the
// hot path does not make.
func GetBuf() []byte { return getBuf(&bufPool) }

// GetFrameBuf is GetBuf for one tuple frame: a buffer of a few hundred
// bytes, so the thousands of frames waiting in transport queues do not
// each pin (and, on a pool miss, allocate and zero) a delivery-sized one.
// A frame that outgrows it grows by append and keeps the larger buffer.
func GetFrameBuf() []byte { return getBuf(&frameBufPool) }

func getBuf(pool *sync.Pool) []byte {
	slot := pool.Get().(*[]byte)
	b := (*slot)[:0]
	*slot = nil
	slotPool.Put(slot)
	return b
}

// PutBuf recycles a buffer obtained from GetBuf or GetFrameBuf, to the
// pool its capacity belongs to. The caller must not touch the slice (or
// anything aliasing it) afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	slot := slotPool.Get().(*[]byte)
	*slot = b[:0]
	if cap(b) < deliveryBufCap {
		frameBufPool.Put(slot)
	} else {
		bufPool.Put(slot)
	}
}

// Encoder appends primitive values to a growing buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with an optional initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// SetBuf points the encoder at an existing buffer (typically from
// GetBuf), so encoding appends into recycled storage instead of growing
// a fresh allocation.
func (e *Encoder) SetBuf(b []byte) { e.buf = b }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// ID appends a fixed-size identifier.
func (e *Encoder) ID(id types.ID) { e.buf = append(e.buf, id[:]...) }

// Blob appends a length-prefixed byte string. The membership subsystem
// uses it to nest an opaque payload (a node snapshot, a WAL record)
// inside a handoff or replication frame without the outer codec knowing
// the payload's layout.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Bool appends a boolean byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Tuple appends a tuple in its canonical encoding, length-prefixed. The
// encoding goes straight into the encoder's buffer, no staging copy.
func (e *Encoder) Tuple(t types.Tuple) {
	e.U32(uint32(t.EncodedSize()))
	e.buf = t.AppendEncode(e.buf)
}

// Decoder consumes primitive values from a buffer. The first error sticks;
// check Err after decoding.
type Decoder struct {
	buf   []byte
	off   int
	err   error
	names *types.Names
}

// NewDecoder wraps a buffer.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// NewNamedDecoder wraps a buffer whose strings — Str's and every tuple's
// relation name and string arguments — resolve through names (see
// types.Names): a string the table holds is shared instead of copied out
// of the buffer. The bytes read are the same as NewDecoder's.
func NewNamedDecoder(b []byte, names *types.Names) *Decoder {
	return &Decoder{buf: b, names: names}
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated %s at offset %d", what, d.off)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Uvarint reads an unsigned varint in its one canonical encoding: a value
// that overflows 64 bits, runs past ten bytes, or is padded with a
// trailing zero group (0x80 0x00 for 0) is refused, so every accepted
// byte string re-encodes to itself.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		d.off++
		return uint64(d.buf[d.off-1])
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Take reads n raw bytes. The returned slice aliases the decoder's
// buffer, like Blob's.
func (d *Decoder) Take(n uint64) []byte {
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail("bytes")
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := d.names.Intern(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// ID reads a fixed-size identifier.
func (d *Decoder) ID() types.ID {
	var id types.ID
	if d.err != nil || d.off+len(id) > len(d.buf) {
		d.fail("id")
		return id
	}
	copy(id[:], d.buf[d.off:])
	d.off += len(id)
	return id
}

// Bool reads a boolean byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Blob reads a length-prefixed byte string. The returned slice aliases
// the decoder's buffer; callers that retain it past the buffer's life
// must copy.
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("blob")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Tuple reads a length-prefixed tuple.
func (d *Decoder) Tuple() types.Tuple {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("tuple")
		return types.Tuple{}
	}
	t, used, err := types.DecodeTuple(d.buf[d.off:d.off+n], d.names)
	if err != nil || used != n {
		if d.err == nil {
			d.err = fmt.Errorf("wire: bad tuple at offset %d: %v", d.off, err)
		}
		return types.Tuple{}
	}
	d.off += n
	return t
}

// WriteFrame writes a 4-byte big-endian length prefix followed by the
// payload as a single Write: header and payload are staged into one
// pooled buffer so a frame costs one syscall, not two, and a concurrent
// writer can never interleave between prefix and body.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	buf := GetBuf()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	PutBuf(buf)
	return err
}

// ReadFrameBuf reads one length-prefixed frame, reusing buf's storage
// when it is large enough (growing it otherwise). A receive loop that
// threads the returned slice back in as the next call's buf decodes its
// whole connection with a single steady-state buffer. The returned slice
// aliases buf; callers that retain decoded data must copy it out before
// the next read.
func ReadFrameBuf(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into the reusable buffer too (a
	// stack-local header array would escape through the io.Reader call
	// and cost an allocation per frame).
	if cap(buf) < 4 {
		buf = make([]byte, 4<<10)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
