package job

import (
	"fmt"
	"math"
)

// Job is the outcome of one job: its spec, its pool, its time
// accounting, when it first started and when it completed, and its
// lifecycle state. It is what a run keeps once the job is done, and
// what metrics, reports and rescheduling policies read. The state of
// the attempt in flight (machine, speed, progress) is not here: Live
// holds it, and Live makes every transition. Job is not safe for
// concurrent use; the simulator is single-threaded.
type Job struct {
	// Spec is the job's immutable description. It is shared, not
	// copied: a job built by New or NewSlab points at its caller's
	// spec, which must not change while the job is in use.
	Spec *Spec

	// Pool is the physical pool the job currently belongs to, or -1.
	Pool int

	acct Accounting

	// FirstStart is the time the job first began executing, or NaN.
	FirstStart float64
	// Completed is the completion time, or NaN while unfinished.
	Completed float64

	state State
}

// Accounting is the per-job time decomposition of §3.1.
type Accounting struct {
	// Wait is c1: minutes queued at virtual or physical pool level.
	Wait float64 `json:"wait"`
	// Suspend is c2: minutes in suspended queues.
	Suspend float64 `json:"suspend"`
	// WastedExec is execution wall-clock destroyed by restarts
	// (part of c3).
	WastedExec float64 `json:"wasted_exec"`
	// RescheduleOverhead is transfer/restart overhead paid in
	// StateTransit (the rest of c3).
	RescheduleOverhead float64 `json:"reschedule_overhead"`
	// Exec is total wall-clock minutes spent executing, including the
	// aborted attempts counted in WastedExec.
	Exec float64 `json:"exec"`

	// Suspensions counts preemption events.
	Suspensions int32 `json:"suspensions"`
	// Restarts counts rescheduling restarts (losing progress).
	Restarts int32 `json:"restarts"`
	// WaitReschedules counts wait-queue reschedules (no progress lost).
	WaitReschedules int32 `json:"wait_reschedules"`
	// Kills counts fault-induced aborts (machine crash or maintenance
	// window), each destroying the attempt's progress like a restart.
	Kills int32 `json:"kills,omitempty"`
}

// Wasted returns the paper's per-job wasted completion time: wait +
// suspend + wasted execution + reschedule overhead.
func (a *Accounting) Wasted() float64 {
	return a.Wait + a.Suspend + a.WastedExec + a.RescheduleOverhead
}

// New instantiates a job from its spec in StateCreated.
func New(spec *Spec) *Job {
	j := new(Job)
	j.init(spec)
	return j
}

// NewSlab instantiates one job per spec in StateCreated, all in one
// allocation: jobs[i].Spec is &specs[i].
func NewSlab(specs []Spec) []Job {
	jobs := make([]Job, len(specs))
	for i := range jobs {
		jobs[i].init(&specs[i])
	}
	return jobs
}

// init resets j to a fresh job of spec in StateCreated.
func (j *Job) init(spec *Spec) {
	*j = Job{
		Spec:       spec,
		state:      StateCreated,
		Pool:       -1,
		FirstStart: math.NaN(),
		Completed:  math.NaN(),
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State { return j.state }

// Acct returns a copy of the job's accounting so far. For a completed
// job this is the final record.
func (j *Job) Acct() Accounting { return j.acct }

// EverSuspended reports whether the job was preempted at least once —
// the membership test for the paper's "suspended jobs" metrics.
func (j *Job) EverSuspended() bool { return j.acct.Suspensions > 0 }

// CompletionTime returns completion − submission, or NaN if unfinished.
func (j *Job) CompletionTime() float64 {
	return j.Completed - j.Spec.Submit
}

// CheckConservation verifies the fundamental accounting invariant for a
// completed job: the wall-clock interval from submission to completion
// is fully explained by wait + suspend + exec + reschedule overhead.
func (j *Job) CheckConservation() error {
	if j.state != StateCompleted {
		return fmt.Errorf("job %d: conservation check before completion", j.Spec.ID)
	}
	lhs := j.Completed - j.Spec.Submit
	rhs := j.acct.Wait + j.acct.Suspend + j.acct.Exec + j.acct.RescheduleOverhead
	if math.Abs(lhs-rhs) > 1e-6*(1+math.Abs(lhs)) {
		return fmt.Errorf("job %d: conservation violated: completion span %v != accounted %v",
			j.Spec.ID, lhs, rhs)
	}
	return nil
}
