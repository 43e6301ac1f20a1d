package snap

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// TestRoundTrip decodes every primitive the encoder writes, in order,
// and checks nothing is left over.
func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.U64(math.MaxUint64)
	e.I64(-7)
	e.Int(42)
	e.F64(math.Inf(-1))
	e.Bool(true)
	e.Bytes([]byte{1, 2, 3})
	e.Str("0,1,")
	e.Ints([]int{3, -1})
	e.F64s([]float64{0.5})
	e.I64s(nil)

	d := NewDecoder(e.Buf)
	if d.U64() != math.MaxUint64 || d.I64() != -7 || d.Int() != 42 || d.F64() != math.Inf(-1) || !d.Bool() {
		t.Fatal("scalar round trip differs")
	}
	if b, s := d.Bytes(), d.Str(); !slices.Equal(b, []byte{1, 2, 3}) || s != "0,1," {
		t.Fatalf("byte strings round trip as %v, %q", b, s)
	}
	if ints, fs, is := d.IntsN(2), d.F64sN(-1), d.I64sN(0); !slices.Equal(ints, []int{3, -1}) ||
		!slices.Equal(fs, []float64{0.5}) || len(is) != 0 {
		t.Fatalf("slices round trip as %v, %v, %v", ints, fs, is)
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", d.Err(), d.Len())
	}
}

// TestDecoderRejects reads input no encoder writes: too few bytes, a
// count past the input or past its bound, and a negative count. Each
// read fails with ErrMismatch and later reads return zero values.
func TestDecoderRejects(t *testing.T) {
	word := func(v int) []byte {
		var e Encoder
		e.Int(v)
		e.Int(5)
		return e.Buf
	}
	for _, tc := range []struct {
		name string
		data []byte
		read func(*Decoder)
	}{
		{"short word", []byte{1, 2, 3}, func(d *Decoder) { d.U64() }},
		{"empty bool", nil, func(d *Decoder) { d.Bool() }},
		{"byte string past the input", word(9), func(d *Decoder) { d.Bytes() }},
		{"slice past the input", word(2), func(d *Decoder) { d.IntsN(-1) }},
		{"slice past its bound", word(1), func(d *Decoder) { d.IntsN(0) }},
		{"negative count", word(-1), func(d *Decoder) { d.Count(-1, 1) }},
	} {
		d := NewDecoder(tc.data)
		tc.read(d)
		if !errors.Is(d.Err(), ErrMismatch) {
			t.Errorf("%s: got %v, want ErrMismatch", tc.name, d.Err())
		}
		if v := d.Int(); v != 0 || d.Err() == nil {
			t.Errorf("%s: read after failure gave %d", tc.name, v)
		}
	}
}
