package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if got := Int(42).AsInt(); got != 42 {
		t.Errorf("Int(42).AsInt() = %d", got)
	}
	if got := String("n1").AsString(); got != "n1" {
		t.Errorf("String(n1).AsString() = %q", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool payload mismatch")
	}
	if Int(1).Kind() != KindInt || String("").Kind() != KindString || Bool(true).Kind() != KindBool {
		t.Error("Kind mismatch")
	}
	var zero Value
	if zero.Kind() != KindInvalid {
		t.Error("zero Value should be invalid")
	}
	if Int(0).Kind() == KindInvalid {
		t.Error("Int(0) should be valid")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"AsInt on string", func() { String("x").AsInt() }},
		{"AsString on int", func() { Int(1).AsString() }},
		{"AsBool on int", func() { Int(1).AsBool() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(7).Equal(Int(7)) {
		t.Error("Int(7) != Int(7)")
	}
	if Int(7).Equal(Int(8)) {
		t.Error("Int(7) == Int(8)")
	}
	if Int(1).Equal(Bool(true)) {
		t.Error("Int(1) == Bool(true): kinds must differ")
	}
	if String("a").Equal(String("b")) {
		t.Error("String(a) == String(b)")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int // sign only
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{String("a"), String("b"), -1},
		{String("b"), String("a"), 1},
		{String("a"), String("a"), 0},
		{Int(99), String("a"), -1}, // kind order: int < string
		{Bool(false), Bool(true), -1},
	}
	for _, tc := range cases {
		got := tc.a.Compare(tc.b)
		if sign(got) != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-5), "-5"},
		{String("data"), `"data"`},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Value{}, "<invalid>"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	if got := String("n1").Display(); got != "n1" {
		t.Errorf("Display = %q, want n1", got)
	}
	if got := Int(3).Display(); got != "3" {
		t.Errorf("Display = %q, want 3", got)
	}
}

func TestValueEncodeDecodeRoundTrip(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		String(""), String("n1"), String("a longer payload with spaces"),
		Bool(true), Bool(false),
	}
	for _, v := range vals {
		enc := v.AppendEncode(nil)
		if len(enc) != v.EncodedSize() {
			t.Errorf("%v: EncodedSize = %d, actual %d", v, v.EncodedSize(), len(enc))
		}
		got, n, err := DecodeValue(enc, nil)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(enc) {
			t.Errorf("%v: consumed %d of %d bytes", v, n, len(enc))
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestValueDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(KindInt)},            // truncated varint
		{byte(KindString), 5, 'a'}, // truncated payload
		{byte(KindBool)},           // truncated bool
		{0xFF, 0},                  // bad kind
	}
	for _, b := range bad {
		if _, _, err := DecodeValue(b, nil); err == nil {
			t.Errorf("DecodeValue(% x): expected error", b)
		}
	}
}

func TestZigzagRoundTripQuick(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntEncodeRoundTripQuick(t *testing.T) {
	f := func(v int64) bool {
		enc := Int(v).AppendEncode(nil)
		got, n, err := DecodeValue(enc, nil)
		return err == nil && n == len(enc) && got.Equal(Int(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringEncodeRoundTripQuick(t *testing.T) {
	f := func(s string) bool {
		enc := String(s).AppendEncode(nil)
		got, n, err := DecodeValue(enc, nil)
		return err == nil && n == len(enc) && got.Equal(String(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarint(t *testing.T) {
	for _, u := range []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint64} {
		enc := appendUvarint(nil, u)
		if len(enc) != uvarintLen(u) {
			t.Errorf("uvarintLen(%d) = %d, actual %d", u, uvarintLen(u), len(enc))
		}
		got, n := decodeUvarint(enc)
		if n != len(enc) || got != u {
			t.Errorf("uvarint round trip %d -> %d (n=%d)", u, got, n)
		}
	}
	// Truncated input.
	if _, n := decodeUvarint([]byte{0x80}); n != 0 {
		t.Errorf("truncated varint: n = %d, want 0", n)
	}
}
