package job

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

func spec0() *Spec {
	s := validSpec()
	s.Submit = 0
	return s
}

func validSpec() *Spec {
	return &Spec{
		ID:         1,
		Submit:     10,
		Work:       100,
		Cores:      1,
		MemMB:      2048,
		Priority:   PriorityLow,
		Candidates: []int{0, 1, 2},
	}
}

func TestSpecValidateOK(t *testing.T) {
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"negativeSubmit", func(s *Spec) { s.Submit = -1 }, "negative submit"},
		{"nanSubmit", func(s *Spec) { s.Submit = math.NaN() }, "non-finite submit time NaN"},
		{"posInfSubmit", func(s *Spec) { s.Submit = math.Inf(1) }, "non-finite submit time +Inf"},
		{"negInfSubmit", func(s *Spec) { s.Submit = math.Inf(-1) }, "non-finite submit time -Inf"},
		{"zeroWork", func(s *Spec) { s.Work = 0 }, "non-positive work"},
		{"nanWork", func(s *Spec) { s.Work = math.NaN() }, "non-finite work NaN"},
		{"posInfWork", func(s *Spec) { s.Work = math.Inf(1) }, "non-finite work +Inf"},
		{"negInfWork", func(s *Spec) { s.Work = math.Inf(-1) }, "non-finite work -Inf"},
		{"zeroCores", func(s *Spec) { s.Cores = 0 }, "non-positive cores"},
		{"negativeMem", func(s *Spec) { s.MemMB = -1 }, "negative memory"},
		{"zeroPriority", func(s *Spec) { s.Priority = 0 }, "invalid priority"},
		{"noCandidates", func(s *Spec) { s.Candidates = nil }, "no candidate pools"},
		{"dupCandidates", func(s *Spec) { s.Candidates = []int{1, 1} }, "duplicate candidate"},
		{"negCandidate", func(s *Spec) { s.Candidates = []int{-3} }, "negative candidate"},
		{"negAfterDup", func(s *Spec) { s.Candidates = []int{2, 2, -1} }, "negative candidate pool -1"},
		{"dupAtEndOf42", func(s *Spec) { s.Candidates = append(poolRange(41), 17) }, "duplicate candidate pool 17"},
		{"dupBeyondStackBuffer", func(s *Spec) { s.Candidates = append(poolRange(99), 3) }, "duplicate candidate pool 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// poolRange returns the candidate list 0..n-1 in descending order, so a
// duplicate appended to it is far from its twin in list order.
func poolRange(n int) []int {
	pools := make([]int, n)
	for i := range pools {
		pools[i] = n - 1 - i
	}
	return pools
}

func TestPriorityString(t *testing.T) {
	if PriorityLow.String() != "low" || PriorityHigh.String() != "high" {
		t.Fatal("priority labels wrong")
	}
	if got := Priority(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown priority label = %q", got)
	}
}

func TestStateString(t *testing.T) {
	states := map[State]string{
		StateCreated:   "created",
		StateWaiting:   "waiting",
		StateRunning:   "running",
		StateSuspended: "suspended",
		StateTransit:   "transit",
		StateCompleted: "completed",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
	if got := State(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown state label = %q", got)
	}
}

func TestNewSlabSharesSpecs(t *testing.T) {
	specs := []Spec{*spec0(), *validSpec()}
	specs[1].ID = 2
	jobs := NewSlab(specs)
	if len(jobs) != len(specs) {
		t.Fatalf("len = %d, want %d", len(jobs), len(specs))
	}
	for i := range jobs {
		j, single := Track(&jobs[i]), Track(New(&specs[i]))
		if j.Spec != &specs[i] {
			t.Fatalf("jobs[%d].Spec does not point at specs[%d]", i, i)
		}
		// Formatted, since the unset times are NaN.
		if got, want := fmt.Sprintf("%+v", j.ExportState()), fmt.Sprintf("%+v", single.ExportState()); got != want {
			t.Fatalf("jobs[%d] state %s, want New's %s", i, got, want)
		}
	}
}

// newLive returns the in-flight state of a fresh job of spec.
func newLive(spec *Spec) *Live {
	l := Track(New(spec))
	return &l
}

// TestOutcomeRecordSize pins the size of the record a run keeps per
// job: the attempt state lives in Live, not here.
func TestOutcomeRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Job{}); got > 96 {
		t.Fatalf("Job is %d bytes, want at most 96", got)
	}
}

func TestSimpleLifecycle(t *testing.T) {
	j := newLive(validSpec())
	if j.State() != StateCreated {
		t.Fatalf("initial state %v", j.State())
	}
	mustDo(t, j.Enqueue(10, 0))
	mustDo(t, j.Start(25, 3, 1.0))
	mustDo(t, j.Complete(125))

	a := j.Acct()
	if a.Wait != 15 {
		t.Fatalf("Wait = %v, want 15", a.Wait)
	}
	if a.Exec != 100 {
		t.Fatalf("Exec = %v, want 100", a.Exec)
	}
	if a.Suspend != 0 || a.WastedExec != 0 || a.RescheduleOverhead != 0 {
		t.Fatalf("unexpected waste: %+v", a)
	}
	if got := j.CompletionTime(); got != 115 {
		t.Fatalf("CompletionTime = %v, want 115", got)
	}
	if j.FirstStart != 25 {
		t.Fatalf("FirstStart = %v", j.FirstStart)
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedScaling(t *testing.T) {
	j := newLive(validSpec()) // Work = 100
	mustDo(t, j.Enqueue(10, 0))
	mustDo(t, j.Start(10, 0, 2.0)) // runs 2x: needs 50 wall minutes
	if got := j.RemainingAt(10); math.Abs(got-50) > 1e-9 {
		t.Fatalf("RemainingAt(start) = %v, want 50", got)
	}
	if got := j.RemainingAt(30); math.Abs(got-30) > 1e-9 {
		t.Fatalf("RemainingAt(+20) = %v, want 30", got)
	}
	mustDo(t, j.Complete(60))
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendResumeAccounting(t *testing.T) {
	j := newLive(validSpec())
	mustDo(t, j.Enqueue(10, 0))
	mustDo(t, j.Start(20, 0, 1.0))
	mustDo(t, j.Suspend(50)) // ran 30 of 100
	if !j.EverSuspended() {
		t.Fatal("EverSuspended should be true")
	}
	if got := j.Progress(); math.Abs(got-30) > 1e-9 {
		t.Fatalf("Progress = %v, want 30", got)
	}
	mustDo(t, j.Resume(500)) // suspended 450
	mustDo(t, j.Complete(570))

	a := j.Acct()
	if math.Abs(a.Suspend-450) > 1e-9 {
		t.Fatalf("Suspend = %v, want 450", a.Suspend)
	}
	if math.Abs(a.Exec-100) > 1e-9 {
		t.Fatalf("Exec = %v, want 100", a.Exec)
	}
	if a.Suspensions != 1 {
		t.Fatalf("Suspensions = %d", a.Suspensions)
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Wasted(), 10.0+450; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Wasted = %v, want %v", got, want)
	}
}

func TestMultipleSuspensions(t *testing.T) {
	j := newLive(validSpec())
	mustDo(t, j.Enqueue(10, 0))
	mustDo(t, j.Start(10, 0, 1.0))
	mustDo(t, j.Suspend(30))
	mustDo(t, j.Resume(40))
	mustDo(t, j.Suspend(60))
	mustDo(t, j.Resume(100))
	mustDo(t, j.Complete(160)) // 20 + 20 + 60 = 100 executed
	a := j.Acct()
	if a.Suspensions != 2 {
		t.Fatalf("Suspensions = %d, want 2", a.Suspensions)
	}
	if math.Abs(a.Suspend-50) > 1e-9 {
		t.Fatalf("Suspend = %v, want 50", a.Suspend)
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartDestroysProgress(t *testing.T) {
	j := newLive(spec0())
	mustDo(t, j.Enqueue(0, 0))
	mustDo(t, j.Start(0, 0, 1.0))
	mustDo(t, j.Suspend(40))     // 40 executed
	mustDo(t, j.RestartFrom(55)) // rescheduled after 15 suspended
	if got := j.Progress(); got != 0 {
		t.Fatalf("progress after restart = %v", got)
	}
	mustDo(t, j.Enqueue(55, 2))
	mustDo(t, j.Start(60, 9, 1.0))
	mustDo(t, j.Complete(160)) // full 100 re-executed

	a := j.Acct()
	if math.Abs(a.WastedExec-40) > 1e-9 {
		t.Fatalf("WastedExec = %v, want 40", a.WastedExec)
	}
	if math.Abs(a.Exec-140) > 1e-9 {
		t.Fatalf("Exec = %v, want 140 (40 wasted + 100 productive)", a.Exec)
	}
	if a.Restarts != 1 {
		t.Fatalf("Restarts = %d", a.Restarts)
	}
	if math.Abs(a.Suspend-15) > 1e-9 {
		t.Fatalf("Suspend = %v, want 15", a.Suspend)
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Wasted = wait(5) + suspend(15) + wastedExec(40) + overhead(0).
	if got, want := a.Wasted(), 60.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Wasted = %v, want %v", got, want)
	}
}

func TestRestartWithOverhead(t *testing.T) {
	j := newLive(spec0())
	mustDo(t, j.Enqueue(0, 0))
	mustDo(t, j.Start(0, 0, 1.0))
	mustDo(t, j.Suspend(20))
	mustDo(t, j.RestartFrom(30)) // transfer takes until t=42
	mustDo(t, j.Enqueue(42, 1))  // arrives after overhead
	mustDo(t, j.Start(42, 5, 1.0))
	mustDo(t, j.Complete(142))
	a := j.Acct()
	if math.Abs(a.RescheduleOverhead-12) > 1e-9 {
		t.Fatalf("RescheduleOverhead = %v, want 12", a.RescheduleOverhead)
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitReschedule(t *testing.T) {
	j := newLive(spec0())
	mustDo(t, j.Enqueue(0, 0))
	mustDo(t, j.RescheduleWait(35)) // stalled 35 min, bounce pools
	mustDo(t, j.Enqueue(35, 1))
	mustDo(t, j.Start(40, 0, 1.0))
	mustDo(t, j.Complete(140))
	a := j.Acct()
	if a.WaitReschedules != 1 {
		t.Fatalf("WaitReschedules = %d", a.WaitReschedules)
	}
	if math.Abs(a.Wait-40) > 1e-9 {
		t.Fatalf("Wait = %v, want 40", a.Wait)
	}
	if a.Restarts != 0 || a.WastedExec != 0 {
		t.Fatalf("wait reschedule should lose no progress: %+v", a)
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestIllegalTransitions(t *testing.T) {
	cases := []struct {
		name string
		run  func(j *Live) error
	}{
		{"startFromCreated", func(j *Live) error { return j.Start(0, 0, 1.0) }},
		{"suspendFromCreated", func(j *Live) error { return j.Suspend(0) }},
		{"resumeFromCreated", func(j *Live) error { return j.Resume(0) }},
		{"completeFromCreated", func(j *Live) error { return j.Complete(0) }},
		{"restartFromCreated", func(j *Live) error { return j.RestartFrom(0) }},
		{"waitRescheduleFromCreated", func(j *Live) error { return j.RescheduleWait(0) }},
		{"migrateFromCreated", func(j *Live) error { return j.MigrateFrom(0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := newLive(validSpec())
			if err := c.run(j); err == nil {
				t.Fatal("want error for illegal transition")
			}
		})
	}
}

func TestIllegalAfterCompleted(t *testing.T) {
	j := newLive(spec0())
	mustDo(t, j.Enqueue(0, 0))
	mustDo(t, j.Start(0, 0, 1.0))
	mustDo(t, j.Complete(100))
	if err := j.Enqueue(200, 0); err == nil {
		t.Fatal("enqueue after completion should fail")
	}
	if err := j.Suspend(200); err == nil {
		t.Fatal("suspend after completion should fail")
	}
}

func TestTimeGoingBackwards(t *testing.T) {
	j := newLive(validSpec())
	mustDo(t, j.Enqueue(50, 0))
	if err := j.Start(40, 0, 1.0); err == nil {
		t.Fatal("time going backwards should fail")
	}
}

func TestCompleteTooEarly(t *testing.T) {
	j := newLive(spec0()) // Work = 100
	mustDo(t, j.Enqueue(0, 0))
	mustDo(t, j.Start(0, 0, 1.0))
	if err := j.Complete(50); err == nil {
		t.Fatal("completing with half the work done should fail")
	}
}

func TestStartBadSpeed(t *testing.T) {
	j := newLive(spec0())
	mustDo(t, j.Enqueue(0, 0))
	if err := j.Start(0, 0, 0); err == nil {
		t.Fatal("zero speed should fail")
	}
}

func TestConservationBeforeCompletion(t *testing.T) {
	j := New(validSpec())
	if err := j.CheckConservation(); err == nil {
		t.Fatal("conservation check should fail before completion")
	}
}

func TestCompletionTimeNaNWhileUnfinished(t *testing.T) {
	j := New(validSpec())
	if !math.IsNaN(j.CompletionTime()) {
		t.Fatal("CompletionTime should be NaN before completion")
	}
}

func TestPoolMachineTracking(t *testing.T) {
	j := newLive(validSpec())
	if j.Pool != -1 || j.Machine != -1 {
		t.Fatal("fresh job should have no pool/machine")
	}
	mustDo(t, j.Enqueue(10, 2))
	if j.Pool != 2 || j.Machine != -1 {
		t.Fatalf("after enqueue: pool=%d machine=%d", j.Pool, j.Machine)
	}
	mustDo(t, j.Start(12, 7, 1.0))
	if j.Machine != 7 {
		t.Fatalf("after start: machine=%d", j.Machine)
	}
	mustDo(t, j.Suspend(20))
	if j.Machine != 7 {
		t.Fatal("suspended job should stay bound to its machine")
	}
	mustDo(t, j.RestartFrom(25))
	if j.Machine != -1 {
		t.Fatal("restarted job should leave its machine")
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
