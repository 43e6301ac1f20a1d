package sched

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"netbatch/internal/job"
	"netbatch/internal/snap"
)

// fakeView is a controllable PoolView for scheduler tests.
type fakeView struct {
	cores  []int
	utils  []float64
	queues []int
}

var _ PoolView = (*fakeView)(nil)

func (f *fakeView) Utilization(p int) float64 { return f.utils[p] }
func (f *fakeView) QueueLen(p int) int        { return f.queues[p] }
func (f *fakeView) PoolCores(p int) int       { return f.cores[p] }

func newFakeView(cores ...int) *fakeView {
	return &fakeView{
		cores:  cores,
		utils:  make([]float64, len(cores)),
		queues: make([]int, len(cores)),
	}
}

func specWithCandidates(cands ...int) *job.Spec {
	return &job.Spec{
		ID: 1, Work: 10, Cores: 1, MemMB: 1024,
		Priority: job.PriorityLow, Candidates: cands,
	}
}

// selectAll asks s for a pool with every candidate of spec eligible.
func selectAll(s InitialScheduler, spec *job.Spec, view PoolView) int {
	return s.SelectPool(spec, spec.Candidates, view)
}

func TestPureRoundRobinCycles(t *testing.T) {
	view := newFakeView(100, 100, 100)
	rr := NewPureRoundRobin()
	spec := specWithCandidates(0, 1, 2)
	var got []int
	for i := 0; i < 6; i++ {
		p := selectAll(rr, spec, view)
		got = append(got, p)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestPureRoundRobinPerCandidateSet(t *testing.T) {
	view := newFakeView(10, 10, 10, 10)
	rr := NewPureRoundRobin()
	all := specWithCandidates(0, 1, 2, 3)
	owned := specWithCandidates(0, 1)
	if p := selectAll(rr, all, view); p != 0 {
		t.Fatalf("first all = %d", p)
	}
	// The owned set rotates independently of the all set.
	if p := selectAll(rr, owned, view); p != 0 {
		t.Fatalf("first owned = %d", p)
	}
	if p := selectAll(rr, all, view); p != 1 {
		t.Fatalf("second all = %d", p)
	}
	if p := selectAll(rr, owned, view); p != 1 {
		t.Fatalf("second owned = %d", p)
	}
}

func TestWeightedRoundRobinProportions(t *testing.T) {
	view := newFakeView(300, 100, 100) // pool 0 has 60% of capacity
	rr := NewRoundRobin()
	spec := specWithCandidates(0, 1, 2)
	counts := make([]int, 3)
	const n = 5000
	for i := 0; i < n; i++ {
		p := selectAll(rr, spec, view)
		counts[p]++
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.6) > 0.01 {
		t.Fatalf("big pool share = %v, want ~0.6 (counts %v)", frac0, counts)
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("small pools starved: %v", counts)
	}
}

func TestWeightedRoundRobinInterleaves(t *testing.T) {
	// Smooth WRR must interleave, not batch: with weights 2:1 the
	// heavy pool must never take 3 consecutive turns.
	view := newFakeView(200, 100)
	rr := NewRoundRobin()
	spec := specWithCandidates(0, 1)
	consecutive := 0
	for i := 0; i < 300; i++ {
		p := selectAll(rr, spec, view)
		if p == 0 {
			consecutive++
			if consecutive >= 3 {
				t.Fatal("weighted RR batched 3 consecutive picks of the heavy pool")
			}
		} else {
			consecutive = 0
		}
	}
}

// TestRoundRobinStateKeys pins the per-candidate-set keys of saved
// round-robin state to the "%d," form, in ascending order, for both
// rotation kinds across several candidate sets. It also checks that a
// turn on a known set allocates nothing and that a loaded state saves
// the same bytes and continues the same rotation.
func TestRoundRobinStateKeys(t *testing.T) {
	view := newFakeView(300, 100, 100, 200, 50, 50, 50, 50, 50, 50, 50, 50)
	sets := [][]int{{0, 1}, {3, 1}, {11, 10, 0}} // the eligible pools
	want := []string{"0,1,", "11,10,0,", "3,1,"}
	for _, rr := range []*RoundRobin{NewRoundRobin(), NewPureRoundRobin()} {
		t.Run(rr.Name(), func(t *testing.T) {
			for _, set := range sets {
				// Every job also lists pool 2, which is not eligible:
				// the keys name eligible pools only.
				spec := specWithCandidates(append(slices.Clone(set), 2)...)
				for range 3 {
					rr.SelectPool(spec, set, view)
				}
			}
			if keys := savedKeys(t, rr); !slices.Equal(keys, want) {
				t.Fatalf("state keys = %q, want %q", keys, want)
			}

			spec := specWithCandidates(sets[2]...)
			if n := testing.AllocsPerRun(100, func() { selectAll(rr, spec, view) }); n != 0 {
				t.Fatalf("SelectPool on a known candidate set allocates %v times per call", n)
			}

			var data snap.Encoder
			rr.SaveState(&data)
			back := &RoundRobin{Pure: rr.Pure}
			if err := back.LoadState(snap.NewDecoder(data.Buf)); err != nil {
				t.Fatal(err)
			}
			var again snap.Encoder
			back.SaveState(&again)
			if !bytes.Equal(again.Buf, data.Buf) {
				t.Fatalf("re-saved state %x, want %x", again.Buf, data.Buf)
			}
			for _, set := range sets {
				spec := specWithCandidates(set...)
				for range 4 {
					p := selectAll(rr, spec, view)
					q := selectAll(back, spec, view)
					if p != q {
						t.Fatalf("set %v: loaded state picks %d, original %d", set, q, p)
					}
				}
			}
		})
	}
}

// savedKeys decodes the candidate-set keys of rr's saved state: the
// equal-turns cursors' for a pure round-robin, else the rotations'.
func savedKeys(t *testing.T, rr *RoundRobin) []string {
	t.Helper()
	var e snap.Encoder
	rr.SaveState(&e)
	d := snap.NewDecoder(e.Buf)
	var cursors, rotations []string
	for range d.Int() {
		cursors = append(cursors, d.Str())
		d.Int()
	}
	for range d.Int() {
		rotations = append(rotations, d.Str())
		d.IntsN(-1)
		d.IntsN(-1)
		d.IntsN(-1)
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("saved state %x does not decode: %v", e.Buf, d.Err())
	}
	if rr.Pure {
		return cursors
	}
	return rotations
}

// TestRoundRobinSkipsIneligible rotates over the eligible list, never
// over the job's full candidate list.
func TestRoundRobinSkipsIneligible(t *testing.T) {
	view := newFakeView(10, 10, 10)
	rr := NewPureRoundRobin()
	spec := specWithCandidates(0, 1, 2)
	for i := 0; i < 10; i++ {
		if p := rr.SelectPool(spec, []int{0, 2}, view); p == 1 {
			t.Fatal("selected ineligible pool 1")
		}
	}
}

func TestUtilizationBasedPicksLowest(t *testing.T) {
	view := newFakeView(10, 10, 10)
	view.utils = []float64{0.9, 0.2, 0.5}
	u := NewUtilizationBased()
	if p := selectAll(u, specWithCandidates(0, 1, 2), view); p != 1 {
		t.Fatalf("picked pool %d, want 1", p)
	}
}

func TestUtilizationBasedTieBreaksFirstListed(t *testing.T) {
	view := newFakeView(10, 10, 10)
	view.utils = []float64{0.5, 0.5, 0.5}
	u := NewUtilizationBased()
	// Candidate order is (2,1,0); strict < keeps the first minimum: 2.
	if p := selectAll(u, specWithCandidates(2, 1, 0), view); p != 2 {
		t.Fatalf("picked pool %d, want first-listed minimum 2", p)
	}
}

func TestUtilizationBasedRespectsCandidates(t *testing.T) {
	view := newFakeView(10, 10, 10)
	view.utils = []float64{0.0, 0.9, 0.9}
	u := NewUtilizationBased()
	// Pool 0 is idle but not a candidate.
	if p := selectAll(u, specWithCandidates(1, 2), view); p == 0 {
		t.Fatal("selected non-candidate pool")
	}
}

// TestUtilizationBasedSkipsIneligible leaves out an idle candidate
// that is not eligible.
func TestUtilizationBasedSkipsIneligible(t *testing.T) {
	view := newFakeView(10, 10)
	view.utils = []float64{0.1, 0.9}
	u := NewUtilizationBased()
	if p := u.SelectPool(specWithCandidates(0, 1), []int{1}, view); p != 1 {
		t.Fatalf("picked %d, want 1", p)
	}
}

func TestRandomInitialCoversCandidates(t *testing.T) {
	view := newFakeView(10, 10, 10, 10)
	r := NewRandomInitial(99)
	spec := specWithCandidates(1, 3)
	seen := map[int]int{}
	for i := 0; i < 1000; i++ {
		p := selectAll(r, spec, view)
		seen[p]++
	}
	if len(seen) != 2 || seen[1] == 0 || seen[3] == 0 {
		t.Fatalf("coverage = %v", seen)
	}
	if seen[0] != 0 || seen[2] != 0 {
		t.Fatalf("picked non-candidates: %v", seen)
	}
}

func TestRandomInitialDeterministicSeed(t *testing.T) {
	view := newFakeView(10, 10, 10)
	spec := specWithCandidates(0, 1, 2)
	a := NewRandomInitial(5)
	b := NewRandomInitial(5)
	for i := 0; i < 100; i++ {
		pa := selectAll(a, spec, view)
		pb := selectAll(b, spec, view)
		if pa != pb {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewRoundRobin().Name() != "rr" {
		t.Fatal("rr name")
	}
	if NewPureRoundRobin().Name() != "rr-pure" {
		t.Fatal("rr-pure name")
	}
	if NewUtilizationBased().Name() != "util" {
		t.Fatal("util name")
	}
	if NewRandomInitial(1).Name() != "random" {
		t.Fatal("random name")
	}
}

// TestRoundRobinLoadStateRejects loads saved states no run can save: a
// rotation whose lists do not match its key, a negative cursor, and a
// truncated state. Each must fail with snap.ErrMismatch; the sound
// state beside them loads.
func TestRoundRobinLoadStateRejects(t *testing.T) {
	state := func(cursor int, key string, pools, weights, current []int) []byte {
		var e snap.Encoder
		e.Int(1)
		e.Str("0,1,")
		e.Int(cursor)
		e.Int(1)
		e.Str(key)
		e.Ints(pools)
		e.Ints(weights)
		e.Ints(current)
		return e.Buf
	}
	sound := state(3, "0,1,", []int{0, 1}, []int{1, 2}, []int{0, -1})
	if err := NewRoundRobin().LoadState(snap.NewDecoder(sound)); err != nil {
		t.Fatalf("sound state: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"current shorter than pools", state(3, "0,1,", []int{0, 1}, []int{1, 2}, []int{0})},
		{"weights longer than pools", state(3, "0,1,", []int{0, 1}, []int{1, 2, 3}, []int{0, -1})},
		{"pools that do not spell the key", state(3, "0,1,", []int{0, 1 << 40}, []int{1, 2}, []int{0, -1})},
		{"pools in another order", state(3, "0,1,", []int{1, 0}, []int{1, 2}, []int{0, -1})},
		{"negative cursor", state(-1, "0,1,", []int{0, 1}, []int{1, 2}, []int{0, -1})},
		{"truncated", sound[:len(sound)-4]},
		{"count past the input", state(3, "0,1,", []int{0, 1}, []int{1, 2}, []int{0, -1})[:8]},
	} {
		if err := NewRoundRobin().LoadState(snap.NewDecoder(tc.data)); !errors.Is(err, snap.ErrMismatch) {
			t.Errorf("%s: got %v, want snap.ErrMismatch", tc.name, err)
		}
	}
}
