// Package job models NetBatch jobs: their immutable trace-derived
// specification, their lifecycle state machine, and the per-job time
// accounting that the paper's metrics are computed from.
//
// The accounting follows §3.1 of the paper. A job's completion time
// decomposes into productive execution plus three waste components:
//
//	c1 Wait Time      — queued at the virtual or physical pool level
//	c2 Suspend Time   — sitting in a host's suspended queue
//	c3 Wasted Time by Rescheduling — execution progress destroyed by a
//	   restart, plus any transfer overhead a reschedule incurs
//
// The package enforces the conservation invariant
//
//	completion − submission = wait + suspend + exec + overhead
//
// where exec includes both the productive final run and the aborted
// partial runs counted in c3.
//
// A job is two records. Job is the outcome, which outlives the run:
// spec, pool, accounting, first start, completion and lifecycle state,
// 96 bytes, read by metrics, reports and rescheduling policies. Live
// is the state of the attempt in flight — machine, speed, progress,
// the attempt's execution time and the time of the last transition —
// which only the simulator holds while the job runs, and which makes
// every transition of the Job it points at.
package job

import (
	"fmt"
	"math"
	"slices"
)

// ID identifies a job within one trace/simulation.
type ID int64

// Priority is a job's scheduling priority. Higher values preempt lower
// ones. The paper's NetBatch analysis uses two classes (owners' high
// priority vs. opportunistic low priority); the model supports any
// number of levels.
type Priority int

// Priority levels. Start at one so the zero value is invalid and
// accidental zero-initialization is caught.
const (
	PriorityLow  Priority = 1
	PriorityHigh Priority = 2
)

// String returns a short human-readable label.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("prio(%d)", int(p))
	}
}

// State is a job lifecycle state. It is one byte, so that a Job stays
// small.
type State uint8

// Lifecycle states. A job is created in StateCreated and must reach
// StateCompleted for its accounting to be final.
const (
	// StateCreated: instantiated from the trace, not yet submitted.
	StateCreated State = iota + 1
	// StateWaiting: queued at the virtual pool manager or in a physical
	// pool's wait queue. Time here accrues to c1 Wait Time.
	StateWaiting
	// StateRunning: executing on a machine. Time here accrues to
	// execution (productive, unless later destroyed by a restart).
	StateRunning
	// StateSuspended: preempted by a higher-priority job, parked in the
	// host's suspended queue. Time here accrues to c2 Suspend Time.
	StateSuspended
	// StateTransit: paying a reschedule transfer overhead on the way to
	// an alternate pool. Time here accrues to c3.
	StateTransit
	// StateCompleted: finished; accounting frozen.
	StateCompleted
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateWaiting:
		return "waiting"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateTransit:
		return "transit"
	case StateCompleted:
		return "completed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Spec is the immutable, trace-derived description of a job.
type Spec struct {
	// ID is unique within a trace.
	ID ID `json:"id"`
	// Submit is the submission time in minutes from trace start.
	Submit float64 `json:"submit"`
	// Work is the job's service demand in minutes on a speed-1.0
	// machine. On a machine with speed s it executes in Work/s minutes.
	Work float64 `json:"work"`
	// Cores is the number of cores the job occupies (≥1).
	Cores int `json:"cores"`
	// MemMB is the job's memory requirement in megabytes.
	MemMB int `json:"mem_mb"`
	// OS is the required machine operating system; empty means any.
	// Together with memory this forms the paper's machine-eligibility
	// requirement ("the job requirements (e.g., OS and memory)", §2.1).
	OS string `json:"os,omitempty"`
	// Priority is the job's preemption priority.
	Priority Priority `json:"priority"`
	// Candidates lists the physical pool IDs the job is allowed to run
	// in, in the virtual pool manager's configured order. High-priority
	// latency-sensitive jobs are typically restricted to the pools
	// their business group owns (§2.3).
	Candidates []int `json:"candidates"`
	// Site is the data-center site the job is submitted from (its data
	// and owner live there). Dispatching it to a pool at another site
	// costs the inter-site delay; 0 is the single-site default.
	Site int `json:"site,omitempty"`
	// TaskID groups jobs into the paper's §2.2 "tasks" (a set of jobs
	// whose combined result is only useful once all complete). Zero
	// means the job belongs to no task.
	TaskID int64 `json:"task_id,omitempty"`
}

// Validate reports whether the spec is internally consistent.
func (s *Spec) Validate() error {
	// NaN passes every ordered comparison below, and an infinite time
	// or demand never completes, so non-finite values fail first.
	switch {
	case math.IsNaN(s.Submit) || math.IsInf(s.Submit, 0):
		return fmt.Errorf("job %d: non-finite submit time %v", s.ID, s.Submit)
	case math.IsNaN(s.Work) || math.IsInf(s.Work, 0):
		return fmt.Errorf("job %d: non-finite work %v", s.ID, s.Work)
	case s.Submit < 0:
		return fmt.Errorf("job %d: negative submit time %v", s.ID, s.Submit)
	case s.Work <= 0:
		return fmt.Errorf("job %d: non-positive work %v", s.ID, s.Work)
	case s.Cores <= 0:
		return fmt.Errorf("job %d: non-positive cores %d", s.ID, s.Cores)
	case s.MemMB < 0:
		return fmt.Errorf("job %d: negative memory %d", s.ID, s.MemMB)
	case s.Priority <= 0:
		return fmt.Errorf("job %d: invalid priority %d", s.ID, s.Priority)
	case len(s.Candidates) == 0:
		return fmt.Errorf("job %d: no candidate pools", s.ID)
	case s.Site < 0:
		return fmt.Errorf("job %d: negative site %d", s.ID, s.Site)
	}
	for _, p := range s.Candidates {
		if p < 0 {
			return fmt.Errorf("job %d: negative candidate pool %d", s.ID, p)
		}
	}
	// Sorting a copy finds duplicates in O(k log k) without a map; the
	// stack buffer covers every realistic candidate list, so validating
	// a trace allocates nothing per job.
	var buf [64]int
	sorted := append(buf[:0], s.Candidates...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("job %d: duplicate candidate pool %d", s.ID, sorted[i])
		}
	}
	return nil
}
