package wire

import (
	"bytes"
	"testing"

	"provcompress/internal/raceflag"
	"provcompress/internal/types"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.U8(7)
	e.U32(123456)
	e.U64(1 << 40)
	e.Str("hello")
	e.Str("")
	e.Bool(true)
	e.Bool(false)
	id := types.HashBytes([]byte("x"))
	e.ID(id)
	tp := types.NewTuple("packet", types.String("n1"), types.Int(-9))
	e.Tuple(tp)

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 123456 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool mismatch")
	}
	if got := d.ID(); got != id {
		t.Errorf("ID = %v", got)
	}
	if got := d.Tuple(); !got.Equal(tp) {
		t.Errorf("Tuple = %v", got)
	}
	if d.Err() != nil {
		t.Errorf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderTruncation(t *testing.T) {
	e := NewEncoder(0)
	e.Str("payload")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_ = d.Str()
		if d.Err() == nil {
			t.Errorf("cut %d: no error", cut)
		}
		// Errors stick: further reads stay failed and return zero values.
		if d.U32() != 0 || d.Err() == nil {
			t.Errorf("cut %d: error did not stick", cut)
		}
	}
}

func TestDecoderBadTuple(t *testing.T) {
	e := NewEncoder(0)
	e.U32(3)
	e.U8(0xFF)
	e.U8(0xFF)
	e.U8(0xFF)
	d := NewDecoder(e.Bytes())
	d.Tuple()
	if d.Err() == nil {
		t.Error("bad tuple bytes accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("one"), {}, []byte("three")}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrameBuf(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
	if _, err := ReadFrameBuf(&buf, nil); err == nil {
		t.Error("read past last frame succeeded")
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(&bytes.Buffer{}, make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversized write accepted")
	}
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrameBuf(&buf, nil); err == nil {
		t.Error("oversized read accepted")
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:6] // header + 2 of 5 payload bytes
	if _, err := ReadFrameBuf(bytes.NewReader(raw), nil); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestEncoderTupleAllocs pins Encoder.Tuple: the bytes are the length
// prefix plus the tuple's canonical encoding, and appending to an encoder
// whose buffer already has room allocates nothing.
func TestEncoderTupleAllocs(t *testing.T) {
	tu := types.NewTuple("packet", types.String("n1"), types.String("n1"), types.String("n3"), types.Int(7))
	e := NewEncoder(256)
	e.Tuple(tu)
	want := NewEncoder(0)
	want.Blob(tu.Encode())
	if !bytes.Equal(e.Bytes(), want.Bytes()) {
		t.Fatalf("Encoder.Tuple = %x, want length-prefixed canonical encoding %x", e.Bytes(), want.Bytes())
	}
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if n := testing.AllocsPerRun(200, func() {
		e.SetBuf(e.Bytes()[:0])
		e.Tuple(tu)
	}); n != 0 {
		t.Errorf("Encoder.Tuple on a warmed encoder allocates %.0f times, want 0", n)
	}
}
