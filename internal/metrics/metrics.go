// Package metrics computes the paper's evaluation metrics (§3.1) from
// completed simulation runs:
//
//   - Suspend Rate — fraction of all submitted jobs suspended at least
//     once during their lifetime.
//   - AvgCT — average completion time, over all jobs and over the
//     suspended-only subset.
//   - AvgST — average total suspend time of suspended jobs.
//   - AvgWCT — average wasted completion time over all jobs, decomposed
//     into (c1) wait time, (c2) suspend time, and (c3) wasted time by
//     rescheduling (destroyed progress plus transfer overhead).
//
// It also produces the suspension-time sample behind Figure 2's CDF and
// task-level summaries for the §2.2 task productivity discussion.
package metrics

import (
	"fmt"
	"math"

	"netbatch/internal/job"
	"netbatch/internal/stats"
)

// Summary is the per-run metric set; one Summary corresponds to one row
// of the paper's Tables 1–5.
type Summary struct {
	// Jobs is the number of completed jobs.
	Jobs int `json:"jobs"`
	// SuspendedJobs is the number suspended at least once.
	SuspendedJobs int `json:"suspended_jobs"`
	// SuspendRate is SuspendedJobs/Jobs in percent.
	SuspendRate float64 `json:"suspend_rate_pct"`

	// AvgCTSuspended is the mean completion time of suspended jobs.
	AvgCTSuspended float64 `json:"avg_ct_suspended"`
	// AvgCTAll is the mean completion time of all jobs.
	AvgCTAll float64 `json:"avg_ct_all"`
	// AvgST is the mean total suspend time of suspended jobs.
	AvgST float64 `json:"avg_st"`
	// AvgWCT is the mean wasted completion time of all jobs.
	AvgWCT float64 `json:"avg_wct"`

	// Waste components, averaged over all jobs (Figure 3):
	// AvgWCT = WaitComp + SuspendComp + ReschedComp.
	WaitComp    float64 `json:"wait_comp"`
	SuspendComp float64 `json:"suspend_comp"`
	ReschedComp float64 `json:"resched_comp"`

	// MedianCT and P90CT are completion-time quantiles over all jobs.
	MedianCT float64 `json:"median_ct"`
	P90CT    float64 `json:"p90_ct"`
	// AvgWait is the mean wait time over all jobs.
	AvgWait float64 `json:"avg_wait"`

	// Restarts and WaitReschedules total the rescheduling activity.
	Restarts        int `json:"restarts"`
	WaitReschedules int `json:"wait_reschedules"`
	// Suspensions totals preemption events (≥ SuspendedJobs; jobs can
	// be suspended repeatedly, §2.2).
	Suspensions int `json:"suspensions"`
	// Kills totals fault-induced aborts (machine crashes, maintenance
	// windows); zero on fault-free runs.
	Kills int `json:"kills,omitempty"`
}

// Summarize computes the Summary over completed jobs. It returns an
// error if any job is incomplete, since partial accounting would skew
// every average.
func Summarize(jobs []*job.Job) (Summary, error) {
	var s Summary
	if len(jobs) == 0 {
		return s, fmt.Errorf("metrics: no jobs to summarize")
	}
	cts := make([]float64, 0, len(jobs))
	var ctAll, ctSusp, st, wct, wait, susp, resched stats.Mean
	for _, j := range jobs {
		if j.State() != job.StateCompleted {
			return s, fmt.Errorf("metrics: job %d incomplete (%v)", j.Spec.ID, j.State())
		}
		a := j.Acct()
		ct := j.CompletionTime()
		cts = append(cts, ct)
		ctAll.Add(ct)
		wct.Add(a.Wasted())
		wait.Add(a.Wait)
		susp.Add(a.Suspend)
		resched.Add(a.WastedExec + a.RescheduleOverhead)
		s.Restarts += int(a.Restarts)
		s.WaitReschedules += int(a.WaitReschedules)
		s.Suspensions += int(a.Suspensions)
		s.Kills += int(a.Kills)
		if j.EverSuspended() {
			s.SuspendedJobs++
			ctSusp.Add(ct)
			st.Add(a.Suspend)
		}
	}
	s.Jobs = len(jobs)
	s.SuspendRate = float64(s.SuspendedJobs) / float64(s.Jobs) * 100
	s.AvgCTSuspended = ctSusp.Mean()
	s.AvgCTAll = ctAll.Mean()
	s.AvgST = st.Mean()
	s.AvgWCT = wct.Mean()
	s.WaitComp = wait.Mean()
	s.SuspendComp = susp.Mean()
	s.ReschedComp = resched.Mean()
	s.AvgWait = wait.Mean()
	var err error
	// cts is this call's own sample, so the pair may reorder it.
	s.MedianCT, s.P90CT, err = stats.QuantilePair(cts, 0.5, 0.9)
	return s, err
}

// CheckComponents verifies AvgWCT decomposes exactly into its three
// components (the Figure 3 identity).
func (s *Summary) CheckComponents() error {
	sum := s.WaitComp + s.SuspendComp + s.ReschedComp
	if math.Abs(sum-s.AvgWCT) > 1e-6*(1+math.Abs(s.AvgWCT)) {
		return fmt.Errorf("metrics: waste components %v do not sum to AvgWCT %v", sum, s.AvgWCT)
	}
	return nil
}

// SuspensionTimes returns the total suspend time of every job suspended
// at least once — the sample behind Figure 2's CDF.
func SuspensionTimes(jobs []*job.Job) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.EverSuspended() {
			out = append(out, j.Acct().Suspend)
		}
	}
	return out
}

// SuspensionCDF builds the Figure 2 CDF from completed jobs.
func SuspensionCDF(jobs []*job.Job) *stats.CDF {
	return stats.NewCDF(SuspensionTimes(jobs))
}

// TaskSummary aggregates the §2.2 task view: a task (set of jobs) is
// complete only when its last member finishes, so one straggler delays
// the whole task's result.
type TaskSummary struct {
	// Tasks is the number of multi-job tasks observed.
	Tasks int `json:"tasks"`
	// AvgSpan is the mean of (last member completion − first member
	// submission) across tasks.
	AvgSpan float64 `json:"avg_span"`
	// AvgStraggler is the mean of (last completion − mean member
	// completion), the straggler-induced delay.
	AvgStraggler float64 `json:"avg_straggler"`
	// TouchedBySuspension is the fraction of tasks with at least one
	// suspended member, in percent.
	TouchedBySuspension float64 `json:"touched_by_suspension_pct"`
}

// SummarizeTasks computes task-level metrics over completed jobs.
// Jobs with TaskID zero are ignored.
func SummarizeTasks(jobs []*job.Job) TaskSummary {
	type acc struct {
		firstSubmit  float64
		lastComplete float64
		sumComplete  float64
		n            int
		suspended    bool
	}
	tasks := make(map[int64]*acc)
	for _, j := range jobs {
		id := j.Spec.TaskID
		if id == 0 || j.State() != job.StateCompleted {
			continue
		}
		a, ok := tasks[id]
		if !ok {
			a = &acc{firstSubmit: j.Spec.Submit, lastComplete: j.Completed}
			tasks[id] = a
		}
		if j.Spec.Submit < a.firstSubmit {
			a.firstSubmit = j.Spec.Submit
		}
		if j.Completed > a.lastComplete {
			a.lastComplete = j.Completed
		}
		a.sumComplete += j.Completed
		a.n++
		if j.EverSuspended() {
			a.suspended = true
		}
	}
	var out TaskSummary
	var span, strag stats.Mean
	suspended := 0
	for _, a := range tasks {
		if a.n < 2 {
			continue
		}
		out.Tasks++
		span.Add(a.lastComplete - a.firstSubmit)
		strag.Add(a.lastComplete - a.sumComplete/float64(a.n))
		if a.suspended {
			suspended++
		}
	}
	out.AvgSpan = span.Mean()
	out.AvgStraggler = strag.Mean()
	if out.Tasks > 0 {
		out.TouchedBySuspension = float64(suspended) / float64(out.Tasks) * 100
	}
	return out
}
