package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Mean is an online accumulator of count, mean, and variance using
// Welford's algorithm. The zero value is ready to use.
type Mean struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (m *Mean) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// N returns the number of observations.
func (m *Mean) N() int64 { return m.n }

// Mean returns the running mean, or 0 with no observations.
func (m *Mean) Mean() float64 { return m.mean }

// Var returns the sample variance, or 0 with fewer than two observations.
func (m *Mean) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Stddev returns the sample standard deviation.
func (m *Mean) Stddev() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (m *Mean) Min() float64 { return m.min }

// Max returns the largest observation, or 0 with no observations.
func (m *Mean) Max() float64 { return m.max }

// tCrit95 holds two-sided Student-t critical values at the 0.95 level
// for 1..30 degrees of freedom; beyond 30 the normal approximation
// (1.96) is within ~2% and is used instead.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the two-sided 95% confidence interval
// for the mean (Student t on n-1 degrees of freedom), or 0 with fewer
// than two observations. The experiment runner reports multi-seed
// replications as Mean() ± CI95().
func (m *Mean) CI95() float64 {
	if m.n < 2 {
		return 0
	}
	t := 1.960
	if df := m.n - 1; df <= int64(len(tCrit95)) {
		t = tCrit95[df-1]
	}
	return t * m.Stddev() / math.Sqrt(float64(m.n))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics: the value a full sort of xs
// (in sort.Float64s order, NaNs first) would give, found by selection
// in expected O(n) time. It returns an error for an empty sample or q
// outside [0, 1], NaN included. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty sample")
	}
	if !(q >= 0 && q <= 1) {
		return 0, fmt.Errorf("stats: quantile %v outside [0, 1]", q)
	}
	buf := slices.Clone(xs)
	lo, hi, frac := quantileRanks(len(buf), q)
	selectRank(buf, lo)
	return interpolateSelected(buf, lo, hi, frac), nil
}

// QuantilePair returns the q1- and q2-quantiles of xs, q1 ≤ q2, as
// Quantile(xs, q1) and Quantile(xs, q2) would, but reorders xs, which
// the caller owns, instead of copying it twice: it selects q1's rank,
// then q2's within the part above it. As with any sort, which of −0
// and +0, or of two NaNs, a quantile returns is unspecified; every
// other value is bit for bit Quantile's. It returns an error for an
// empty sample or unless 0 ≤ q1 ≤ q2 ≤ 1.
func QuantilePair(xs []float64, q1, q2 float64) (v1, v2 float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("stats: quantile of empty sample")
	}
	if !(q1 >= 0 && q1 <= q2 && q2 <= 1) {
		return 0, 0, fmt.Errorf("stats: quantiles %v, %v not ordered within [0, 1]", q1, q2)
	}
	lo1, hi1, frac1 := quantileRanks(len(xs), q1)
	selectRank(xs, lo1)
	v1 = interpolateSelected(xs, lo1, hi1, frac1)
	lo2, hi2, frac2 := quantileRanks(len(xs), q2)
	if lo2 > lo1 {
		// Everything after rank lo1 sorts at or above it, so rank lo2
		// of xs is rank lo2−lo1−1 of that part.
		selectRank(xs[lo1+1:], lo2-lo1-1)
	}
	return v1, interpolateSelected(xs, lo2, hi2, frac2), nil
}

// interpolateSelected returns the quantile between ranks lo and hi
// (hi is lo or lo+1) of xs, whose rank lo selectRank has placed.
func interpolateSelected(xs []float64, lo, hi int, frac float64) float64 {
	if lo == hi {
		return xs[lo]
	}
	// Every value after rank lo sorts at or above it, so rank hi = lo+1
	// is the least of them.
	return xs[lo]*(1-frac) + slices.Min(xs[lo+1:])*frac
}

// quantileRanks returns the two order statistics of an n-sample the
// q-quantile interpolates between, and the weight of the upper one.
func quantileRanks(n int, q float64) (lo, hi int, frac float64) {
	pos := q * float64(n-1)
	lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

func quantileSorted(sorted []float64, q float64) float64 {
	lo, hi, frac := quantileRanks(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// selectRank reorders xs so that xs[k] holds the value a full sort would
// put there, with nothing after it sorting below it. It is an
// introselect: median-of-three Hoare partitioning narrows the range
// holding rank k, and the range left once it is small, or once about
// 2·log2(n) rounds are spent, is sorted, so the worst case stays
// O(n log n).
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); hi-lo > 16 && rounds > 0; rounds-- {
		if j := partition(xs, lo, hi); k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	slices.Sort(xs[lo : hi+1])
}

// partition splits xs[lo..hi] (hi > lo+1) around the median of its
// first, middle and last values with Hoare's scheme, and returns j in
// [lo, hi) such that nothing in xs[lo..j] sorts above anything in
// xs[j+1..hi]. It orders values with cmp.Less, as sort.Float64s does.
func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if cmp.Less(xs[mid], xs[lo]) {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if cmp.Less(xs[hi], xs[mid]) {
		xs[hi], xs[mid] = xs[mid], xs[hi]
		if cmp.Less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
	}
	// The pivot's own slot stops both scans on the first pass, and each
	// swap leaves a stopper for the next, so neither scan leaves the
	// range and j < hi.
	pivot := xs[mid]
	i, j := lo-1, hi+1
	for {
		for i++; cmp.Less(xs[i], pivot); i++ {
		}
		for j--; cmp.Less(pivot, xs[j]); j-- {
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// CDF is an empirical cumulative distribution function over a fixed
// sample. Construct it with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. xs is copied; it may be empty,
// in which case all queries return degenerate values.
func NewCDF(xs []float64) *CDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of the sample at or below x.
// It returns 0 for an empty sample.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the sample, or 0 for an empty
// sample. q is clamped to [0, 1]; a NaN q returns NaN.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return q
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return quantileSorted(c.sorted, q)
}

// Mean returns the sample mean, or 0 for an empty sample.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, x := range c.sorted {
		sum += x
	}
	return sum / float64(len(c.sorted))
}

// Points returns (value, cumulative fraction) pairs suitable for plotting
// the CDF at up to n evenly spaced sample ranks. For n <= 0 or n larger
// than the sample, every sample point is returned.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 {
		return nil
	}
	if n <= 0 || n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		rank := i * (len(c.sorted) - 1) / max(n-1, 1)
		pts = append(pts, Point{
			X: c.sorted[rank],
			Y: float64(rank+1) / float64(len(c.sorted)),
		})
	}
	return pts
}

// Point is an (x, y) pair in a rendered distribution or time series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}
