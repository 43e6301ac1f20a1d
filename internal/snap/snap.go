// Package snap is the one binary encoding of checkpoint state: the
// simulator's snapshot sections and the saved state of schedulers,
// policies and random streams all use its primitives. Words are
// fixed-width little-endian, floats their IEEE-754 bits, and byte
// strings and slices carry a length word, so equal states always encode
// to equal bytes.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMismatch wraps every failure to read saved state back: too few
// bytes, or words the reader cannot continue from. The simulator
// exports it as sim.ErrSnapshotMismatch.
var ErrMismatch = errors.New("sim: snapshot incompatible with this run")

// Encoder appends primitives to Buf.
type Encoder struct {
	Buf []byte
}

func (e *Encoder) U64(v uint64)  { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }
func (e *Encoder) I64(v int64)   { e.U64(uint64(v)) }
func (e *Encoder) Int(v int)     { e.I64(int64(v)) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.Buf = append(e.Buf, b)
}
func (e *Encoder) Bytes(v []byte) {
	e.U64(uint64(len(v)))
	e.Buf = append(e.Buf, v...)
}
func (e *Encoder) Str(v string) {
	e.U64(uint64(len(v)))
	e.Buf = append(e.Buf, v...)
}
func (e *Encoder) Ints(v []int) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}
func (e *Encoder) F64s(v []float64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}
func (e *Encoder) I64s(v []int64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.I64(x)
	}
}

// Decoder reads an Encoder's stream back with a sticky error, so a
// reader can decode unconditionally and check Err once: after the
// first failure every read returns the zero value.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first failure, wrapping ErrMismatch, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.data) - d.off }

// Fail marks the input malformed; reads that find too few bytes call it
// themselves.
func (d *Decoder) Fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated snapshot", ErrMismatch)
	}
}

func (d *Decoder) U64() uint64 {
	if d.err != nil || d.Len() < 8 {
		d.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}
func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) Int() int     { return int(d.I64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Decoder) Bool() bool {
	if d.err != nil || d.Len() < 1 {
		d.Fail()
		return false
	}
	v := d.data[d.off]
	d.off++
	return v != 0
}

// Count reads a length word of items at least size bytes long each. It
// fails, returning 0, unless the count is non-negative, at most max
// (when max >= 0) and fits the unread bytes, so a forged count can
// neither pass a bound nor allocate past the input.
func (d *Decoder) Count(max, size int) int {
	n := d.U64()
	if d.err != nil || n > uint64(d.Len()/size) || (max >= 0 && n > uint64(max)) {
		d.Fail()
		return 0
	}
	return int(n)
}

// Bytes returns the next byte string, aliasing the decoder's input.
func (d *Decoder) Bytes() []byte {
	n := d.Count(-1, 1)
	v := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}
func (d *Decoder) Str() string { return string(d.Bytes()) }

// IntsN, F64sN and I64sN read a slice of at most max elements (any
// length when max < 0).
func (d *Decoder) IntsN(max int) []int {
	v := make([]int, d.Count(max, 8))
	for i := range v {
		v[i] = d.Int()
	}
	return v
}
func (d *Decoder) F64sN(max int) []float64 {
	v := make([]float64, d.Count(max, 8))
	for i := range v {
		v[i] = d.F64()
	}
	return v
}
func (d *Decoder) I64sN(max int) []int64 {
	v := make([]int64, d.Count(max, 8))
	for i := range v {
		v[i] = d.I64()
	}
	return v
}
