package stats

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netbatch/internal/snap"
)

func TestNewRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d — same seed must produce same stream", i, av, bv)
		}
	}
}

func TestNewRNGDistinctSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	// Drawing from a split stream must not perturb the parent relative
	// to a parent that split but never used the child.
	a := NewRNG(7)
	b := NewRNG(7)
	ac := a.Split()
	_ = b.Split()
	for i := 0; i < 100; i++ {
		ac.Float64() // consume child draws
	}
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("parent stream perturbed by child draws at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	var m Mean
	const want = 250.0
	for i := 0; i < 200000; i++ {
		m.Add(r.Exp(want))
	}
	if got := m.Mean(); math.Abs(got-want)/want > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", got, want)
	}
}

func TestExpPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestLognormalMedian(t *testing.T) {
	r := NewRNG(13)
	mu := math.Log(100.0)
	xs := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		xs = append(xs, r.Lognormal(mu, 1.2))
	}
	med, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Median of lognormal is exp(mu) = 100.
	if math.Abs(med-100)/100 > 0.05 {
		t.Fatalf("lognormal median = %v, want ~100", med)
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(17)
	const xm, alpha = 10.0, 1.5
	over := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto variate %v below xm %v", v, xm)
		}
		if v > 100 { // P(X > 100) = (xm/100)^alpha = 0.1^1.5 ~ 0.0316
			over++
		}
	}
	frac := float64(over) / n
	if math.Abs(frac-0.0316) > 0.005 {
		t.Fatalf("Pareto tail fraction = %v, want ~0.0316", frac)
	}
}

func TestParetoPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"xm=0":    func() { NewRNG(1).Pareto(0, 1) },
		"alpha=0": func() { NewRNG(1).Pareto(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(23)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", frac)
	}
}

func TestPickWeighted(t *testing.T) {
	r := NewRNG(29)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.PickWeighted(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index picked %d times", counts[1])
	}
	if frac := float64(counts[2]) / n; math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("weight-3 index frac = %v, want ~0.75", frac)
	}
}

func TestPickWeightedPanics(t *testing.T) {
	cases := map[string][]float64{
		"empty":    {},
		"allZero":  {0, 0},
		"negative": {1, -1},
	}
	for name, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PickWeighted(%s) did not panic", name)
				}
			}()
			NewRNG(1).PickWeighted(w)
		}()
	}
}

// TestPickWeightedSupportMatchesMasked: a support-restricted pick
// returns what PickWeighted returns on the weights with every entry
// outside the support zeroed, draw for draw from the same stream.
func TestPickWeightedSupportMatchesMasked(t *testing.T) {
	gen := NewRNG(41)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + gen.IntN(12)
		weights := make([]float64, n)
		masked := make([]float64, n)
		var support []int
		for i := range weights {
			if gen.Bool(0.2) {
				continue // zero weight, inside or outside the support
			}
			weights[i] = gen.Float64() * 10
			if gen.Bool(0.6) {
				support = append(support, i)
				masked[i] = weights[i]
			}
		}
		if gen.Bool(0.3) && (len(support) == 0 || support[len(support)-1] != n-1) {
			support = append(support, n-1) // a zero or positive last index
			masked[n-1] = weights[n-1]
		}
		var total float64
		for _, w := range masked {
			total += w
		}
		if total <= 0 {
			continue
		}
		a, b := NewRNG(uint64(trial)), NewRNG(uint64(trial))
		for d := 0; d < 20; d++ {
			if got, want := a.PickWeightedSupport(weights, support), b.PickWeighted(masked); got != want {
				t.Fatalf("trial %d draw %d: weights %v support %v: got %d, want %d",
					trial, d, weights, support, got, want)
			}
		}
	}
}

// maxSource always yields the largest Float64, (2^53-1)/2^53.
type maxSource struct{}

func (maxSource) Uint64() uint64 { return math.MaxUint64 }

// TestPickWeightedSupportRoundingFallthrough: when rounding leaves the
// scan's remainder non-negative, PickWeighted returns its last index,
// even a zero-weight one outside the support; so must the restricted
// pick.
func TestPickWeightedSupportRoundingFallthrough(t *testing.T) {
	top := &RNG{src: rand.New(maxSource{})}
	// 0.3+0.1+0.6 sums to exactly 1, and subtracting them in order from
	// the largest draw below 1 never goes negative.
	if got := top.PickWeighted([]float64{0.3, 0.1, 0.6}); got != 2 {
		t.Fatalf("PickWeighted = %d; the example no longer falls through", got)
	}
	full := []float64{0.3, 0, 0.1, 9, 0.6, 0}
	masked := []float64{0.3, 0, 0.1, 0, 0.6, 0}
	if got := top.PickWeighted(masked); got != 5 {
		t.Fatalf("PickWeighted(masked) = %d, want 5", got)
	}
	if got := top.PickWeightedSupport(full, []int{0, 2, 4}); got != 5 {
		t.Fatalf("PickWeightedSupport = %d, want 5 (the full vector's last index)", got)
	}
}

func TestPickWeightedSupportPanics(t *testing.T) {
	for name, c := range map[string]struct {
		w       []float64
		support []int
	}{
		"emptySupport": {[]float64{1, 2}, nil},
		"allZero":      {[]float64{1, 0, 0}, []int{1, 2}},
		"negative":     {[]float64{1, -1}, []int{0, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PickWeightedSupport(%s) did not panic", name)
				}
			}()
			NewRNG(1).PickWeightedSupport(c.w, c.support)
		}()
	}
}

func TestIntNCoverage(t *testing.T) {
	r := NewRNG(31)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN(5) = %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("IntN(5) covered only %d values", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(37)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrderIndependent(t *testing.T) {
	// Keyed forks must not depend on parent draws or fork order.
	a := NewRNG(99)
	b := NewRNG(99)
	for i := 0; i < 17; i++ {
		a.Float64() // perturb a's stream only
	}
	childA := a.SplitKey(7)
	_ = b.SplitKey(3) // fork in a different order
	childB := b.SplitKey(7)
	for i := 0; i < 100; i++ {
		if childA.Uint64() != childB.Uint64() {
			t.Fatal("SplitKey stream depends on parent draws or fork order")
		}
	}
}

func TestSplitKeyDistinctKeys(t *testing.T) {
	r := NewRNG(1)
	x, y := r.SplitKey(1), r.SplitKey(2)
	same := 0
	for i := 0; i < 64; i++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct keys collided on %d of 64 draws", same)
	}
}

func TestForkSeedPure(t *testing.T) {
	if ForkSeed(42, 1, 2) != ForkSeed(42, 1, 2) {
		t.Fatal("ForkSeed not deterministic")
	}
	if ForkSeed(42, 1, 2) == ForkSeed(42, 2, 1) {
		t.Fatal("ForkSeed ignores key order")
	}
	if ForkSeed(42, 1) == ForkSeed(42, 2) {
		t.Fatal("ForkSeed collided on distinct keys")
	}
	if ForkSeed(42) == ForkSeed(43) {
		t.Fatal("ForkSeed collided on distinct seeds")
	}
}

// TestRNGExportImportIdenticalStreams saves a generator mid-stream,
// loads the state into a generator of another seed, and checks that it
// draws (and forks) exactly what the saved one draws next, and that
// saving it again gives the same bytes.
func TestRNGExportImportIdenticalStreams(t *testing.T) {
	r := NewRNG(12345)
	for i := 0; i < 100; i++ {
		r.Float64() // advance mid-stream
	}
	var st snap.Encoder
	r.SaveState(&st)
	want := make([]float64, 64)
	for i := range want {
		// Mix variate kinds so any hidden transform state would surface.
		switch i % 4 {
		case 0:
			want[i] = r.Float64()
		case 1:
			want[i] = float64(r.IntN(1 << 30))
		case 2:
			want[i] = r.NormFloat64()
		default:
			want[i] = r.Exp(7)
		}
	}
	wantFork := r.SplitKey(99).Uint64()

	restored := NewRNG(1)
	if err := restored.LoadState(snap.NewDecoder(st.Buf)); err != nil {
		t.Fatal(err)
	}
	var again snap.Encoder
	restored.SaveState(&again)
	if !bytes.Equal(again.Buf, st.Buf) {
		t.Fatalf("re-saved state %x, want %x", again.Buf, st.Buf)
	}
	for i := range want {
		var got float64
		switch i % 4 {
		case 0:
			got = restored.Float64()
		case 1:
			got = float64(restored.IntN(1 << 30))
		case 2:
			got = restored.NormFloat64()
		default:
			got = restored.Exp(7)
		}
		if got != want[i] {
			t.Fatalf("draw %d: restored %v != straight %v", i, got, want[i])
		}
	}
	if gotFork := restored.SplitKey(99).Uint64(); gotFork != wantFork {
		t.Fatalf("SplitKey after restore diverged: %d != %d", gotFork, wantFork)
	}
}

func TestRNGExportIsPureRead(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	a.SaveState(&snap.Encoder{})
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("SaveState perturbed the stream at draw %d", i)
		}
	}
}

// TestRNGImportRejectsGarbage loads bytes that are no PCG state, and a
// truncated state: both must fail with snap.ErrMismatch.
func TestRNGImportRejectsGarbage(t *testing.T) {
	var e snap.Encoder
	e.U64(1)
	e.Bytes([]byte("nonsense"))
	for _, data := range [][]byte{e.Buf, e.Buf[:4]} {
		if err := NewRNG(1).LoadState(snap.NewDecoder(data)); !errors.Is(err, snap.ErrMismatch) {
			t.Fatalf("LoadState(%x): got %v, want snap.ErrMismatch", data, err)
		}
	}
}
