package types

import (
	"bytes"
	"testing"
)

// FuzzDecodeTuple checks the tuple decoder never panics on arbitrary bytes,
// that successfully decoded tuples re-encode to the consumed prefix, and
// that decoding through a name table changes nothing but where the
// strings live.
func FuzzDecodeTuple(f *testing.F) {
	f.Add(pkt("n1", "n1", "n3", "data").Encode())
	f.Add(NewTuple("route", String("n2"), String("n3"), String("n3")).Encode())
	f.Add(NewTuple("mixed", String("n"), Int(-1), Bool(true)).Encode())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeBothWays(t, data, testNames)
		tp, n, err := DecodeTuple(data, nil)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := tp.Encode()
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n% x\nvs\n% x", re, data[:n])
		}
		if len(re) != tp.EncodedSize() {
			t.Fatalf("EncodedSize %d != %d", tp.EncodedSize(), len(re))
		}
	})
}

// FuzzDecodeValue checks the value decoder on arbitrary bytes.
func FuzzDecodeValue(f *testing.F) {
	f.Add(Int(42).AppendEncode(nil))
	f.Add(String("hello").AppendEncode(nil))
	f.Add(Bool(true).AppendEncode(nil))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeValue(data, nil)
		if err != nil {
			return
		}
		re := v.AppendEncode(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}
