package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.N() != 0 || m.Mean() != 0 || m.Var() != 0 {
		t.Fatal("zero-value Mean not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d", m.N())
	}
	if got := m.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample variance of the classic dataset: population var is 4, so
	// sample var is 4 * 8/7.
	if got, want := m.Var(), 4.0*8/7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Var = %v, want %v", got, want)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", m.Min(), m.Max())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("empty sample: want error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Fatal("q<0: want error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Fatal("q>1: want error")
	}
	if _, err := Quantile([]float64{1, 2}, math.NaN()); err == nil {
		t.Fatal("q=NaN: want error")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.N() != 0 || c.At(5) != 0 || c.Quantile(0.5) != 0 || c.Mean() != 0 {
		t.Fatal("empty CDF not degenerate-safe")
	}
	if pts := c.Points(10); pts != nil {
		t.Fatal("empty CDF Points should be nil")
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	r := NewRNG(101)
	err := quick.Check(func(seedByte uint8) bool {
		n := int(seedByte)%100 + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		c := NewCDF(xs)
		// CDF must be monotone nondecreasing in x.
		prev := -1.0
		for x := 0.0; x <= 1000; x += 50 {
			v := c.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		// Quantile must be monotone nondecreasing in q and invert At.
		prevQ := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.Quantile(q)
			if v < prevQ {
				return false
			}
			prevQ = v
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileAtRoundTrip(t *testing.T) {
	r := NewRNG(103)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	c := NewCDF(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		x := c.Quantile(q)
		if got := c.At(x); got < q-0.01 {
			t.Fatalf("At(Quantile(%v)) = %v < q", q, got)
		}
	}
	if got := c.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Quantile(NaN) = %v, want NaN", got)
	}
}

func TestCDFPoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	c := NewCDF(xs)
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points(5) len = %d", len(pts))
	}
	if pts[0].X != 10 || pts[len(pts)-1].X != 50 {
		t.Fatalf("Points endpoints = %v, %v", pts[0], pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("Points Y not monotone")
		}
	}
	if got := c.Points(0); len(got) != len(xs) {
		t.Fatalf("Points(0) len = %d, want %d", len(got), len(xs))
	}
}

func TestCDFMean(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3})
	if got := c.Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

// sortedQuantile is the definition Quantile must match: sort a copy
// with sort.Float64s and interpolate between neighbouring ranks.
func sortedQuantile(xs []float64, q float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameQuantile compares quantiles the way the sorted definition fixes
// them: a sort may order NaNs of different payloads, or −0 and +0, either
// way round, so NaN equals NaN and −0 equals +0.
func sameQuantile(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// checkQuantile asserts Quantile(xs, q) matches the sorted definition
// and leaves xs bit-for-bit unmodified.
func checkQuantile(t *testing.T, xs []float64, q float64) {
	t.Helper()
	before := make([]uint64, len(xs))
	for i, x := range xs {
		before[i] = math.Float64bits(x)
	}
	got, err := Quantile(xs, q)
	if err != nil {
		t.Fatalf("n=%d q=%v: %v", len(xs), q, err)
	}
	if want := sortedQuantile(xs, q); !sameQuantile(got, want) {
		t.Fatalf("n=%d q=%v: got %v, want %v", len(xs), q, got, want)
	}
	for i, x := range xs {
		if math.Float64bits(x) != before[i] {
			t.Fatalf("n=%d q=%v: input modified at %d", len(xs), q, i)
		}
	}
}

// sameBits reports whether QuantilePair's value a is Quantile's b: bit
// for bit, except that a selection may return either of −0 and +0, or
// either of two NaNs.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkQuantilePair asserts that QuantilePair(xs', q1, q2), on a copy
// xs' of xs, returns Quantile(xs, q1) and Quantile(xs, q2), and leaves
// xs' a reordering of xs.
func checkQuantilePair(t *testing.T, xs []float64, q1, q2 float64) {
	t.Helper()
	buf := slices.Clone(xs)
	v1, v2, err := QuantilePair(buf, q1, q2)
	if err != nil {
		t.Fatalf("n=%d q=%v,%v: %v", len(xs), q1, q2, err)
	}
	for _, c := range []struct{ q, got float64 }{{q1, v1}, {q2, v2}} {
		want, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(c.got, want) {
			t.Fatalf("n=%d q=%v,%v: pair gives %v at %v, Quantile %v", len(xs), q1, q2, c.got, c.q, want)
		}
	}
	sorted, got := slices.Clone(xs), slices.Clone(buf)
	sort.Float64s(sorted)
	sort.Float64s(got)
	for i := range sorted {
		if !sameQuantile(got[i], sorted[i]) {
			t.Fatalf("n=%d q=%v,%v: sample is not a reordering of the input", len(xs), q1, q2)
		}
	}
}

// checkPairs runs checkQuantilePair on the pairs a quantile q makes:
// equal quantiles, q and its mirror, and Summarize's median and P90.
func checkPairs(t *testing.T, xs []float64, q float64) {
	t.Helper()
	checkQuantilePair(t, xs, q, q)
	checkQuantilePair(t, xs, min(q, 1-q), max(q, 1-q))
	checkQuantilePair(t, xs, 0.5, 0.9)
}

func TestQuantilePairErrors(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q2 float64
	}{
		{nil, 0.5, 0.9},
		{[]float64{1, 2}, 0.9, 0.5},
		{[]float64{1, 2}, -0.1, 0.5},
		{[]float64{1, 2}, 0.5, 1.1},
		{[]float64{1, 2}, math.NaN(), 0.5},
		{[]float64{1, 2}, 0.5, math.NaN()},
	} {
		if _, _, err := QuantilePair(c.xs, c.q1, c.q2); err == nil {
			t.Fatalf("QuantilePair(%v, %v, %v): want error", c.xs, c.q1, c.q2)
		}
	}
}

func TestQuantileMatchesSortDefinition(t *testing.T) {
	r := NewRNG(301)
	families := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"random", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Exp(100)
			}
			return xs
		}},
		{"heavyTies", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.IntN(4))
			}
			return xs
		}},
		{"sorted", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i) / 3
			}
			return xs
		}},
		{"reversed", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		}},
		{"allEqual", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 7
			}
			return xs
		}},
		{"withNaN", func(n int) []float64 {
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
			xs := make([]float64, n)
			for i := range xs {
				if r.IntN(4) == 0 {
					xs[i] = specials[r.IntN(len(specials))]
				} else {
					xs[i] = r.Float64()*2 - 1
				}
			}
			return xs
		}},
	}
	lengths := []int{1, 2, 3, 4, 5, 8, 16, 17, 18, 19, 33, 100, 101, 257, 1000, 1001, 2999, 3000}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			for _, n := range lengths {
				xs := fam.gen(n)
				// 0 and 1 are the ends; 0.5 and 0.25 land exactly on an
				// index when n-1 is a multiple of 2 or 4, k/(n-1) aims
				// at index k, and the rest fall between two ranks.
				qs := []float64{0, 1, 0.5, 0.25, 0.9, 0.1, 0.999, 1e-9, 1 - 1e-9}
				if n > 1 {
					qs = append(qs, 1/float64(n-1), float64(n/3)/float64(n-1), float64(n-2)/float64(n-1))
				}
				for _, q := range qs {
					checkQuantile(t, xs, q)
					checkPairs(t, xs, q)
				}
			}
		})
	}
}

// FuzzQuantile checks selection against the sorted definition on
// arbitrary samples, and QuantilePair against Quantile on the pairs q
// makes (see checkPairs). Each input byte is one value: a small
// integer, or NaN, ±Inf or −0 for four reserved bytes, so ties and
// every special ordering case turn up often.
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{3, 1, 2}, 0.5)
	f.Add([]byte{0x80, 5, 0x7f, 0x81, 0x7e, 0, 5, 5}, 0.9)
	f.Add([]byte{}, 0.5)
	f.Add([]byte{1}, math.NaN())
	f.Add([]byte{7, 0x80}, 0.5)
	f.Add([]byte{0x7e, 0}, 0.9)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		xs := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 0x80:
				xs[i] = math.NaN()
			case 0x7f:
				xs[i] = math.Inf(1)
			case 0x81:
				xs[i] = math.Inf(-1)
			case 0x7e:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = float64(int8(b))
			}
		}
		if len(xs) == 0 || !(q >= 0 && q <= 1) {
			if _, err := Quantile(xs, q); err == nil {
				t.Fatalf("n=%d q=%v: want error", len(xs), q)
			}
			if _, _, err := QuantilePair(slices.Clone(xs), q, q); err == nil {
				t.Fatalf("n=%d q=%v: want error from the pair", len(xs), q)
			}
			return
		}
		checkQuantile(t, xs, q)
		checkPairs(t, xs, q)
	})
}

func TestMeanCI95(t *testing.T) {
	var m Mean
	if m.CI95() != 0 {
		t.Fatal("empty accumulator must report zero CI")
	}
	m.Add(5)
	if m.CI95() != 0 {
		t.Fatal("single observation must report zero CI")
	}
	// {1, 3}: stddev = sqrt(2), df = 1, t = 12.706,
	// CI = 12.706 * sqrt(2) / sqrt(2) = 12.706.
	var two Mean
	two.Add(1)
	two.Add(3)
	if got := two.CI95(); math.Abs(got-12.706) > 1e-9 {
		t.Fatalf("CI95 of {1,3} = %v, want 12.706", got)
	}
	// {1,2,3,4}: stddev = 1.29099..., df = 3, t = 3.182.
	var four Mean
	for _, x := range []float64{1, 2, 3, 4} {
		four.Add(x)
	}
	want := 3.182 * four.Stddev() / 2
	if got := four.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 of {1..4} = %v, want %v", got, want)
	}
	// Large n falls back to the normal critical value.
	var big Mean
	for i := 0; i < 1000; i++ {
		big.Add(float64(i % 10))
	}
	want = 1.96 * big.Stddev() / math.Sqrt(1000)
	if got := big.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("large-n CI95 = %v, want %v", got, want)
	}
}
