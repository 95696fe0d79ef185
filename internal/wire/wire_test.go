package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/signal"
)

// codec pairs one Append* primitive with its decoder over a common
// value type, so every primitive runs through the same round-trip,
// truncation and fuzz checks.
type codec struct {
	name   string
	values []any
	append func(b []byte, v any) []byte
	decode func(b []byte) (any, []byte, error)
}

var allBits = []signal.Bit{signal.B0, signal.B1, signal.BX, signal.BZ}

func bitsOf(n int) []signal.Bit {
	out := make([]signal.Bit, n)
	for i := range out {
		out[i] = allBits[(i*7+i/3)%4]
	}
	return out
}

func codecs() []codec {
	return []codec{
		{"Uvarint", []any{uint64(0), uint64(1), uint64(127), uint64(128), uint64(1) << 35, uint64(math.MaxUint64)},
			func(b []byte, v any) []byte { return AppendUvarint(b, v.(uint64)) },
			func(b []byte) (any, []byte, error) { return Uvarint(b) }},
		{"Varint", []any{int64(0), int64(-1), int64(63), int64(-64), int64(1) << 40, int64(math.MinInt64), int64(math.MaxInt64)},
			func(b []byte, v any) []byte { return AppendVarint(b, v.(int64)) },
			func(b []byte) (any, []byte, error) { return Varint(b) }},
		{"Bytes", []any{[]byte(nil), []byte{0}, []byte("payload\x00\xd5"), bytes.Repeat([]byte{0xa5}, 300)},
			func(b []byte, v any) []byte { return AppendBytes(b, v.([]byte)) },
			func(b []byte) (any, []byte, error) { return Bytes(b) }},
		{"String", []any{"", "x", "ünïcode\x00nul", string(bytes.Repeat([]byte("m"), 200))},
			func(b []byte, v any) []byte { return AppendString(b, v.(string)) },
			func(b []byte) (any, []byte, error) { return String(b) }},
		{"Float64", []any{0.0, -0.5, math.Inf(1), math.SmallestNonzeroFloat64, math.MaxFloat64},
			func(b []byte, v any) []byte { return AppendFloat64(b, v.(float64)) },
			func(b []byte) (any, []byte, error) { return Float64(b) }},
		{"Float64s", []any{[]float64(nil), []float64{1.5}, []float64{0, -1, math.Inf(-1), 1e-300}},
			func(b []byte, v any) []byte { return AppendFloat64s(b, v.([]float64)) },
			func(b []byte) (any, []byte, error) { return Float64s(b) }},
		{"Strings", []any{[]string(nil), []string{""}, []string{"a", "", "ccc"}},
			func(b []byte, v any) []byte { return AppendStrings(b, v.([]string)) },
			func(b []byte) (any, []byte, error) { return Strings(b) }},
		{"Bits", []any{[]signal.Bit(nil), bitsOf(1), bitsOf(3), bitsOf(4), bitsOf(5), bitsOf(64), bitsOf(1023)},
			func(b []byte, v any) []byte { return AppendBits(b, v.([]signal.Bit)) },
			func(b []byte) (any, []byte, error) { return Bits(b) }},
		{"Patterns", []any{[][]signal.Bit(nil), [][]signal.Bit{nil}, [][]signal.Bit{bitsOf(8), bitsOf(3), nil, bitsOf(17)}},
			func(b []byte, v any) []byte { return AppendPatterns(b, v.([][]signal.Bit)) },
			func(b []byte) (any, []byte, error) { return Patterns(b) }},
		{"Word", []any{signal.Word{}, signal.Word{Bits: bitsOf(16)}},
			func(b []byte, v any) []byte { return AppendWord(b, v.(signal.Word)) },
			func(b []byte) (any, []byte, error) { return Word(b) }},
		{"Bool", []any{false, true},
			func(b []byte, v any) []byte { return AppendBool(b, v.(bool)) },
			func(b []byte) (any, []byte, error) { return Bool(b) }},
	}
}

// sameValue compares decoded values. Byte sections compare by content (a
// zero-length section decodes to an empty, non-nil slice); floats, alone
// or in vectors, compare by bits so NaN and signed zeros round-trip
// exactly.
func sameValue(a, b any) bool {
	if ba, ok := a.([]byte); ok {
		bb, ok := b.([]byte)
		return ok && bytes.Equal(ba, bb)
	}
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	if fa, ok := a.([]float64); ok {
		fb, ok := b.([]float64)
		if !ok || len(fa) != len(fb) {
			return false
		}
		for i := range fa {
			if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestPrimitiveRoundTrip encodes every sample value behind a prefix and
// ahead of a trailer: the decoder must return the value and exactly the
// trailer as its remaining input.
func TestPrimitiveRoundTrip(t *testing.T) {
	trailer := []byte{0xde, 0xad}
	for _, c := range codecs() {
		for i, v := range c.values {
			prefix := []byte{0x42}
			buf := c.append(prefix, v)
			if !bytes.Equal(buf[:1], prefix) {
				t.Fatalf("%s[%d]: append clobbered the existing buffer", c.name, i)
			}
			buf = append(buf, trailer...)
			got, rest, err := c.decode(buf[1:])
			if err != nil {
				t.Errorf("%s[%d]: decode: %v", c.name, i, err)
				continue
			}
			if !sameValue(got, v) {
				t.Errorf("%s[%d]: round trip %#v -> %#v", c.name, i, v, got)
			}
			if !bytes.Equal(rest, trailer) {
				t.Errorf("%s[%d]: rest %x, want the %x trailer", c.name, i, rest, trailer)
			}
		}
	}
}

// TestPrimitiveTruncated cuts every encoding short at every length: each
// strict prefix must be rejected with an error wrapping ErrTruncated,
// never decoded and never a panic.
func TestPrimitiveTruncated(t *testing.T) {
	for _, c := range codecs() {
		for i, v := range c.values {
			enc := c.append(nil, v)
			for n := 0; n < len(enc); n++ {
				short := append([]byte(nil), enc[:n]...)
				if _, _, err := c.decode(short); !errors.Is(err, ErrTruncated) {
					t.Errorf("%s[%d]: %d of %d bytes: err = %v, want ErrTruncated", c.name, i, n, len(enc), err)
				}
			}
		}
	}
}

// TestPrimitiveOverCount feeds count and length prefixes that claim more
// than the input holds, up to values whose byte size overflows uint64.
// Every one must come back as an error before any allocation is sized
// from the claim.
func TestPrimitiveOverCount(t *testing.T) {
	claim := func(n uint64, tail ...byte) []byte {
		return append(binary.AppendUvarint(nil, n), tail...)
	}
	cases := []struct {
		name   string
		input  []byte
		decode func([]byte) error
	}{
		{"Bytes/one-past", claim(4, 1, 2, 3), func(b []byte) error { _, _, err := Bytes(b); return err }},
		{"Bytes/max", claim(math.MaxUint64, 1), func(b []byte) error { _, _, err := Bytes(b); return err }},
		{"String/one-past", claim(2, 'a'), func(b []byte) error { _, _, err := String(b); return err }},
		{"Float64s/one-past", claim(2, make([]byte, 15)...), func(b []byte) error { _, _, err := Float64s(b); return err }},
		{"Float64s/overflow", claim(1<<61, make([]byte, 8)...), func(b []byte) error { _, _, err := Float64s(b); return err }},
		{"Float64s/max", claim(math.MaxUint64), func(b []byte) error { _, _, err := Float64s(b); return err }},
		{"Strings/one-past", claim(3, 0, 0), func(b []byte) error { _, _, err := Strings(b); return err }},
		{"Strings/max", claim(math.MaxUint64, 0), func(b []byte) error { _, _, err := Strings(b); return err }},
		{"Bits/one-past", claim(9, 0, 0), func(b []byte) error { _, _, err := Bits(b); return err }},
		{"Bits/overflow", claim(math.MaxUint64-1, 0), func(b []byte) error { _, _, err := Bits(b); return err }},
		{"Bits/max", claim(math.MaxUint64), func(b []byte) error { _, _, err := Bits(b); return err }},
		{"Patterns/one-past", claim(2, 0), func(b []byte) error { _, _, err := Patterns(b); return err }},
		{"Patterns/max", claim(math.MaxUint64, 0), func(b []byte) error { _, _, err := Patterns(b); return err }},
		{"Word/overflow", claim(math.MaxUint64-2, 0), func(b []byte) error { _, _, err := Word(b); return err }},
	}
	for _, c := range cases {
		if err := c.decode(c.input); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", c.name, err)
		}
	}
}

// TestPrimitiveMalformed covers inputs that are long enough but not a
// valid encoding: varints longer than 64 bits and non-canonical booleans.
func TestPrimitiveMalformed(t *testing.T) {
	long := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Uvarint(long); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("Uvarint of an 11-byte varint: err = %v, want an overflow error", err)
	}
	if _, _, err := Varint(long); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("Varint of an 11-byte varint: err = %v, want an overflow error", err)
	}
	if _, _, err := Bytes(long); err == nil {
		t.Error("Bytes accepted an overflowing length prefix")
	}
	for _, b := range []byte{2, 0x80, 0xff} {
		if _, _, err := Bool([]byte{b}); err == nil {
			t.Errorf("Bool accepted byte %#02x", b)
		}
	}
}

// FuzzWirePrimitives feeds arbitrary bytes to every decoder. None may
// panic; whatever one accepts must be a prefix of the input, and its
// value must re-encode to bytes that decode to the same value.
func FuzzWirePrimitives(f *testing.F) {
	for _, c := range codecs() {
		for _, v := range c.values {
			f.Add(c.append(nil, v))
		}
	}
	f.Add(bytes.Repeat([]byte{0xff}, 11))
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs() {
			v, rest, err := c.decode(data)
			if err != nil {
				continue
			}
			if len(rest) > len(data) || !bytes.Equal(rest, data[len(data)-len(rest):]) {
				t.Fatalf("%s: rest is not a suffix of the input", c.name)
			}
			again, tail, err := c.decode(c.append(nil, v))
			if err != nil || len(tail) != 0 {
				t.Fatalf("%s: re-encoding of %#v does not decode cleanly: %v (%d bytes left)", c.name, v, err, len(tail))
			}
			if !sameValue(again, v) {
				t.Fatalf("%s: %#v re-decoded as %#v", c.name, v, again)
			}
		}
	})
}
