package core

import (
	"testing"

	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// fakeView is a controllable PoolView.
type fakeView struct {
	utils  []float64
	queues []int
}

var _ sched.PoolView = (*fakeView)(nil)

func (f *fakeView) Utilization(p int) float64 { return f.utils[p] }
func (f *fakeView) QueueLen(p int) int        { return f.queues[p] }
func (f *fakeView) PoolCores(p int) int       { return 100 }

func newView(utils ...float64) *fakeView {
	return &fakeView{utils: utils, queues: make([]int, len(utils))}
}

// onSuspend and onWaitTimeout consult p with every candidate of j
// eligible.
func onSuspend(p Policy, j *job.Job, view sched.PoolView) (int, bool) {
	return p.OnSuspend(j, j.Spec.Candidates, view)
}

func onWaitTimeout(p Policy, j *job.Job, view sched.PoolView) (int, bool) {
	return p.OnWaitTimeout(j, j.Spec.Candidates, view)
}

// suspendedJob builds a job suspended at the given pool.
func suspendedJob(t *testing.T, pool int, candidates ...int) *job.Job {
	t.Helper()
	j := job.Track(job.New(&job.Spec{
		ID: 7, Submit: 0, Work: 100, Cores: 1, MemMB: 1024,
		Priority: job.PriorityLow, Candidates: candidates,
	}))
	if err := j.Enqueue(0, pool); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(1, 3, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := j.Suspend(10); err != nil {
		t.Fatal(err)
	}
	return j.Job
}

// waitingJob builds a job waiting at the given pool.
func waitingJob(t *testing.T, pool int, candidates ...int) *job.Job {
	t.Helper()
	j := job.Track(job.New(&job.Spec{
		ID: 8, Submit: 0, Work: 100, Cores: 1, MemMB: 1024,
		Priority: job.PriorityLow, Candidates: candidates,
	}))
	if err := j.Enqueue(0, pool); err != nil {
		t.Fatal(err)
	}
	return j.Job
}

func TestNoRes(t *testing.T) {
	p := NewNoRes()
	if p.Name() != "NoRes" {
		t.Fatal("name")
	}
	if p.WaitThreshold() != 0 {
		t.Fatal("NoRes must not reschedule waiting jobs")
	}
	j := suspendedJob(t, 0, 0, 1)
	if _, move := onSuspend(p, j, newView(0.9, 0.0)); move {
		t.Fatal("NoRes moved a job")
	}
	if _, move := onWaitTimeout(p, j, newView(0.9, 0.0)); move {
		t.Fatal("NoRes moved a waiting job")
	}
}

func TestResSusUtilPicksLowestAlternate(t *testing.T) {
	p := NewResSusUtil()
	j := suspendedJob(t, 0, 0, 1, 2, 3)
	view := newView(0.9, 0.7, 0.2, 0.5)
	pool, move := onSuspend(p, j, view)
	if !move || pool != 2 {
		t.Fatalf("OnSuspend = (%d, %v), want (2, true)", pool, move)
	}
}

func TestResSusUtilRetainsWhenCurrentLowest(t *testing.T) {
	// "if all alternate pools are even more utilized than the current
	// pool, ResSusUtil will simply retain the suspended job" (§3.2.1).
	p := NewResSusUtil()
	j := suspendedJob(t, 0, 0, 1, 2)
	view := newView(0.2, 0.7, 0.9)
	if _, move := onSuspend(p, j, view); move {
		t.Fatal("moved despite current pool being least utilized")
	}
	// Equal utilization also retains (not strictly lower).
	view = newView(0.5, 0.5, 0.9)
	if _, move := onSuspend(p, j, view); move {
		t.Fatal("moved to an equally utilized pool")
	}
}

// TestResSusUtilSkipsIneligible leaves out the least utilized
// candidate when it is not eligible.
func TestResSusUtilSkipsIneligible(t *testing.T) {
	p := NewResSusUtil()
	j := suspendedJob(t, 0, 0, 1, 2)
	pool, move := p.OnSuspend(j, []int{0, 2}, newView(0.9, 0.1, 0.5))
	if !move || pool != 2 {
		t.Fatalf("OnSuspend = (%d, %v), want (2, true)", pool, move)
	}
}

func TestResSusUtilNoAlternate(t *testing.T) {
	p := NewResSusUtil()
	j := suspendedJob(t, 0, 0) // only candidate is the current pool
	if _, move := onSuspend(p, j, newView(0.9)); move {
		t.Fatal("moved with no alternate pool")
	}
}

func TestResSusUtilNeverMovesWaiting(t *testing.T) {
	p := NewResSusUtil()
	if p.WaitThreshold() != 0 {
		t.Fatal("ResSusUtil should not watch wait queues")
	}
}

func TestResSusRandPicksAnyCandidate(t *testing.T) {
	p := NewResSusRand(3)
	view := newView(0.1, 0.9, 0.9, 0.9)
	seen := map[int]int{}
	for i := 0; i < 400; i++ {
		j := suspendedJob(t, 1, 0, 1, 2, 3)
		pool, move := onSuspend(p, j, view)
		if !move {
			t.Fatal("random policy should always move when candidates exist")
		}
		seen[pool]++
	}
	// Every candidate gets picked — INCLUDING the current pool 1 (the
	// paper's random selection is "among all candidate pools") — and
	// load is ignored by design.
	if len(seen) != 4 {
		t.Fatalf("candidate coverage = %v", seen)
	}
	if seen[1] == 0 {
		t.Fatal("current pool never picked; paper's random selection does not exclude it")
	}
}

func TestResSusRandDeterministic(t *testing.T) {
	view := newView(0.5, 0.5, 0.5)
	a, b := NewResSusRand(11), NewResSusRand(11)
	for i := 0; i < 50; i++ {
		j := suspendedJob(t, 0, 0, 1, 2)
		pa, _ := onSuspend(a, j, view)
		pb, _ := onSuspend(b, j, view)
		if pa != pb {
			t.Fatal("same seed diverged")
		}
	}
}

func TestResSusRandNoEligibleCandidate(t *testing.T) {
	p := NewResSusRand(1)
	j := suspendedJob(t, 0, 0, 1)
	view := newView(0.9, 0.9)
	if _, move := p.OnSuspend(j, nil, view); move {
		t.Fatal("moved with no eligible candidate")
	}
	// With only the current pool eligible, the pick is the current pool
	// (a restart-in-place, which the paper's blind selection allows).
	pool, move := p.OnSuspend(j, []int{0}, view)
	if !move || pool != 0 {
		t.Fatalf("pick = (%d, %v), want restart-in-place (0, true)", pool, move)
	}
}

func TestResSusWaitUtilThreshold(t *testing.T) {
	p := NewResSusWaitUtil()
	if got := p.WaitThreshold(); got != DefaultWaitThreshold {
		t.Fatalf("threshold = %v, want %v (paper §3.3)", got, DefaultWaitThreshold)
	}
	custom := ResSusWaitUtil{Threshold: 60}
	if custom.WaitThreshold() != 60 {
		t.Fatal("custom threshold ignored")
	}
}

func TestResSusWaitUtilMovesBoth(t *testing.T) {
	p := NewResSusWaitUtil()
	view := newView(0.9, 0.1)
	js := suspendedJob(t, 0, 0, 1)
	if pool, move := onSuspend(p, js, view); !move || pool != 1 {
		t.Fatalf("suspend decision = (%d, %v)", pool, move)
	}
	jw := waitingJob(t, 0, 0, 1)
	if pool, move := onWaitTimeout(p, jw, view); !move || pool != 1 {
		t.Fatalf("wait decision = (%d, %v)", pool, move)
	}
	// Stays when current pool is least utilized.
	view = newView(0.1, 0.9)
	if _, move := onWaitTimeout(p, waitingJob(t, 0, 0, 1), view); move {
		t.Fatal("moved waiting job to busier pool")
	}
}

func TestResSusWaitRandMovesBoth(t *testing.T) {
	p := NewResSusWaitRand(5)
	if p.WaitThreshold() != DefaultWaitThreshold {
		t.Fatal("threshold")
	}
	view := newView(0.9, 0.9, 0.9) // load ignored by design
	js := suspendedJob(t, 0, 0, 1, 2)
	if _, move := onSuspend(p, js, view); !move {
		t.Fatal("suspended job not moved")
	}
	jw := waitingJob(t, 1, 0, 1, 2)
	if _, move := onWaitTimeout(p, jw, view); !move {
		t.Fatal("waiting job not moved")
	}
	// Picks cover all candidates over repeated timeouts (a pick equal to
	// the current pool is treated as a stay by the simulator, giving the
	// job another second chance at the next timeout).
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		pool, move := onWaitTimeout(p, waitingJob(t, 1, 0, 1, 2), view)
		if !move {
			t.Fatal("random wait policy should always pick")
		}
		seen[pool] = true
	}
	if len(seen) != 3 {
		t.Fatalf("candidate coverage = %v", seen)
	}
}

func TestResSusMigrate(t *testing.T) {
	p := NewResSusMigrate(15)
	if p.Name() != "ResSusMigrate" {
		t.Fatal("name")
	}
	var m Migrator = p
	if m.MigrationOverhead() != 15 {
		t.Fatal("overhead")
	}
	j := suspendedJob(t, 0, 0, 1)
	view := newView(0.9, 0.1)
	if pool, move := onSuspend(p, j, view); !move || pool != 1 {
		t.Fatalf("migrate decision = (%d, %v)", pool, move)
	}
	if p.WaitThreshold() != 0 {
		t.Fatal("migrate policy should not watch wait queues")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"NoRes":          NewNoRes(),
		"ResSusUtil":     NewResSusUtil(),
		"ResSusRand":     NewResSusRand(1),
		"ResSusWaitUtil": NewResSusWaitUtil(),
		"ResSusWaitRand": NewResSusWaitRand(1),
		"ResSusMigrate":  NewResSusMigrate(1),
	}
	for want, p := range names {
		if got := p.Name(); got != want {
			t.Fatalf("Name() = %q, want %q", got, want)
		}
	}
}
