package metrics

import (
	"math"
	"testing"

	"netbatch/internal/job"
	"netbatch/internal/stats"
)

// completedJob builds a completed job with a scripted lifecycle.
// Timeline: submit -> wait w -> run r1 -> [suspend s -> resume] ->
// complete. If restart is true the job instead restarts after the
// suspension and reruns from scratch.
func completedJob(t testing.TB, id job.ID, submit, wait, work, suspend float64, restart bool) *job.Job {
	t.Helper()
	j := job.Track(job.New(&job.Spec{
		ID: id, Submit: submit, Work: work, Cores: 1, MemMB: 1,
		Priority: job.PriorityLow, Candidates: []int{0, 1},
	}))
	now := submit
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Enqueue(now, 0))
	now += wait
	must(j.Start(now, 0, 1.0))
	if suspend > 0 {
		now += work / 2
		must(j.Suspend(now))
		now += suspend
		if restart {
			must(j.RestartFrom(now))
			must(j.Enqueue(now, 1))
			must(j.Start(now, 1, 1.0))
			now += work
		} else {
			must(j.Resume(now))
			now += work / 2
		}
	} else {
		now += work
	}
	must(j.Complete(now))
	return j.Job
}

func TestSummarizeBasics(t *testing.T) {
	jobs := []*job.Job{
		completedJob(t, 1, 0, 10, 100, 0, false), // CT 110, waste 10
		completedJob(t, 2, 5, 0, 100, 40, false), // CT 140, waste 40, suspended
		completedJob(t, 3, 9, 20, 100, 0, false), // CT 120, waste 20
		completedJob(t, 4, 2, 0, 100, 30, true),  // CT 180, waste 30+50, suspended+restarted
	}
	s, err := Summarize(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != 4 || s.SuspendedJobs != 2 {
		t.Fatalf("counts = %+v", s)
	}
	if math.Abs(s.SuspendRate-50) > 1e-9 {
		t.Fatalf("suspend rate = %v", s.SuspendRate)
	}
	if math.Abs(s.AvgCTAll-(110+140+120+180)/4.0) > 1e-9 {
		t.Fatalf("AvgCTAll = %v", s.AvgCTAll)
	}
	if math.Abs(s.AvgCTSuspended-(140+180)/2.0) > 1e-9 {
		t.Fatalf("AvgCTSuspended = %v", s.AvgCTSuspended)
	}
	if math.Abs(s.AvgST-(40+30)/2.0) > 1e-9 {
		t.Fatalf("AvgST = %v", s.AvgST)
	}
	// Waste: job1 10, job2 40, job3 20, job4 30 suspend + 50 wasted exec.
	if math.Abs(s.AvgWCT-(10+40+20+80)/4.0) > 1e-9 {
		t.Fatalf("AvgWCT = %v", s.AvgWCT)
	}
	if err := s.CheckComponents(); err != nil {
		t.Fatal(err)
	}
	if s.Restarts != 1 || s.Suspensions != 2 {
		t.Fatalf("restarts=%d suspensions=%d", s.Restarts, s.Suspensions)
	}
	if s.MedianCT <= 0 || s.P90CT < s.MedianCT {
		t.Fatalf("quantiles: median=%v p90=%v", s.MedianCT, s.P90CT)
	}
}

func TestSummarizeComponentsIdentity(t *testing.T) {
	jobs := []*job.Job{
		completedJob(t, 1, 0, 12, 60, 25, false),
		completedJob(t, 2, 0, 0, 60, 33, true),
		completedJob(t, 3, 0, 7, 60, 0, false),
	}
	s, err := Summarize(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckComponents(); err != nil {
		t.Fatal(err)
	}
	if s.WaitComp != s.AvgWait {
		t.Fatal("AvgWait should equal the wait component")
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty input should error")
	}
	incomplete := job.New(&job.Spec{
		ID: 1, Work: 10, Cores: 1, MemMB: 1,
		Priority: job.PriorityLow, Candidates: []int{0},
	})
	if _, err := Summarize([]*job.Job{incomplete}); err == nil {
		t.Fatal("incomplete job should error")
	}
}

func TestSuspensionTimesAndCDF(t *testing.T) {
	jobs := []*job.Job{
		completedJob(t, 1, 0, 0, 100, 0, false),
		completedJob(t, 2, 0, 0, 100, 40, false),
		completedJob(t, 3, 0, 0, 100, 80, false),
	}
	ts := SuspensionTimes(jobs)
	if len(ts) != 2 {
		t.Fatalf("suspension sample size = %d", len(ts))
	}
	cdf := SuspensionCDF(jobs)
	if cdf.N() != 2 {
		t.Fatalf("CDF N = %d", cdf.N())
	}
	if got := cdf.At(40); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("CDF(40) = %v", got)
	}
}

func TestSummarizeTasks(t *testing.T) {
	mk := func(id job.ID, taskID int64, submit, wait, work, suspend float64) *job.Job {
		j := completedJob(t, id, submit, wait, work, suspend, false)
		j.Spec.TaskID = taskID
		return j
	}
	jobs := []*job.Job{
		// Task 1: two members, one suspended straggler.
		mk(1, 1, 0, 0, 100, 0),  // completes 100
		mk(2, 1, 0, 0, 100, 60), // completes 160
		// Task 2: two clean members.
		mk(3, 2, 10, 0, 50, 0), // completes 60
		mk(4, 2, 10, 0, 50, 0), // completes 60
		// Singleton task is ignored (n < 2).
		mk(5, 3, 0, 0, 10, 0),
		// Untasked job ignored.
		mk(6, 0, 0, 0, 10, 0),
	}
	ts := SummarizeTasks(jobs)
	if ts.Tasks != 2 {
		t.Fatalf("tasks = %d", ts.Tasks)
	}
	// Task 1 span 160, task 2 span 50.
	if math.Abs(ts.AvgSpan-105) > 1e-9 {
		t.Fatalf("AvgSpan = %v", ts.AvgSpan)
	}
	// Task 1 straggler delay 160-130=30; task 2: 0.
	if math.Abs(ts.AvgStraggler-15) > 1e-9 {
		t.Fatalf("AvgStraggler = %v", ts.AvgStraggler)
	}
	if math.Abs(ts.TouchedBySuspension-50) > 1e-9 {
		t.Fatalf("TouchedBySuspension = %v", ts.TouchedBySuspension)
	}
}

func TestSummarizeTasksEmpty(t *testing.T) {
	ts := SummarizeTasks(nil)
	if ts.Tasks != 0 || ts.AvgSpan != 0 || ts.TouchedBySuspension != 0 {
		t.Fatalf("empty task summary = %+v", ts)
	}
}

// BenchmarkSummarize is the metrics layer of one year-scale cell:
// Summarize over 200,000 completed jobs, a tenth of them suspended once
// and a quarter of those restarted.
func BenchmarkSummarize(b *testing.B) {
	r := stats.NewRNG(7)
	jobs := make([]*job.Job, 200_000)
	for i := range jobs {
		var suspend float64
		if r.IntN(10) == 0 {
			suspend = r.Exp(60)
		}
		jobs[i] = completedJob(b, job.ID(i+1), float64(i)/2, r.Exp(30), r.Exp(120)+1, suspend,
			suspend > 0 && r.IntN(4) == 0)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Summarize(jobs); err != nil {
			b.Fatal(err)
		}
	}
}
