package job

import (
	"fmt"
	"math"
)

// Live is a job in flight: its outcome record and the state of its
// current attempt, which nothing reads once the job completes. It owns
// every lifecycle transition. The simulator holds one Live per job for
// the length of a run; the Job it points at is what the run keeps.
type Live struct {
	*Job

	// stateSince is the simulated time of the last state transition.
	stateSince float64
	// Machine is the machine the job is running or suspended on, or -1.
	Machine int
	// speed is the speed factor of the machine of the current attempt.
	speed float64
	// progress is the executed work (speed-adjusted, in Work units) of
	// the current attempt.
	progress float64
	// attemptExecWall is the wall-clock minutes spent executing in the
	// current attempt; destroyed and moved to wastedExec on restart.
	attemptExecWall float64
}

// Track returns the in-flight state of j, a job fresh from New or
// NewSlab: no transition yet, submitted at its spec's time.
func Track(j *Job) Live {
	return Live{Job: j, stateSince: j.Spec.Submit, Machine: -1}
}

// StateSince returns the time of the last state transition (the
// submission time before the first). Every change to the job's mutable
// state goes through a transition, so a job whose StateSince is before
// t has not changed since t.
func (j *Live) StateSince() float64 { return j.stateSince }

// Progress returns the executed work (in Work units) of the current
// attempt.
func (j *Live) Progress() float64 { return j.progress }

// RemainingAt returns the wall-clock minutes of execution left assuming
// the job keeps running at its current machine's speed, measured at
// time now. It is only meaningful in StateRunning.
func (j *Live) RemainingAt(now float64) float64 {
	run := now - j.stateSince
	done := j.progress + run*j.speed
	return (j.Spec.Work - done) / j.speed
}

// transition validates and applies a state change at time now,
// accruing the elapsed interval into the bucket of the outgoing state.
func (j *Live) transition(now float64, to State) error {
	if now < j.stateSince {
		return fmt.Errorf("job %d: time went backwards: %v -> %v in %v",
			j.Spec.ID, j.stateSince, now, j.state)
	}
	elapsed := now - j.stateSince
	switch j.state {
	case StateCreated:
		// NetBatch queues jobs immediately on submission (§2.1), so any
		// interval between submission and the first enqueue is wait.
		j.acct.Wait += elapsed
	case StateWaiting:
		j.acct.Wait += elapsed
	case StateRunning:
		j.acct.Exec += elapsed
		j.attemptExecWall += elapsed
		j.progress += elapsed * j.speed
	case StateSuspended:
		j.acct.Suspend += elapsed
	case StateTransit:
		j.acct.RescheduleOverhead += elapsed
	case StateCompleted:
		return fmt.Errorf("job %d: transition out of completed state", j.Spec.ID)
	default:
		return fmt.Errorf("job %d: unknown state %v", j.Spec.ID, j.state)
	}
	j.state = to
	j.stateSince = now
	return nil
}

// Enqueue moves the job into a wait queue (VPM or physical pool) at
// time now. pool is the pool whose queue it joined, or -1 for the
// virtual pool manager's queue.
func (j *Live) Enqueue(now float64, pool int) error {
	switch j.state {
	case StateCreated, StateWaiting, StateTransit:
		// Legal: initial submission, pool-to-pool bounce, or arrival
		// after a reschedule transfer.
	default:
		return fmt.Errorf("job %d: enqueue from state %v", j.Spec.ID, j.state)
	}
	if err := j.transition(now, StateWaiting); err != nil {
		return err
	}
	j.Pool = pool
	j.Machine = -1
	return nil
}

// Start begins (or resumes after a restart from queue) execution on
// machine with the given speed factor at time now.
func (j *Live) Start(now float64, machine int, speed float64) error {
	if j.state != StateWaiting {
		return fmt.Errorf("job %d: start from state %v", j.Spec.ID, j.state)
	}
	if speed <= 0 {
		return fmt.Errorf("job %d: non-positive machine speed %v", j.Spec.ID, speed)
	}
	if err := j.transition(now, StateRunning); err != nil {
		return err
	}
	j.Machine = machine
	j.speed = speed
	if math.IsNaN(j.FirstStart) {
		j.FirstStart = now
	}
	return nil
}

// Suspend parks the job in its host's suspended queue at time now
// (a higher-priority job preempted it). Progress is preserved.
func (j *Live) Suspend(now float64) error {
	if j.state != StateRunning {
		return fmt.Errorf("job %d: suspend from state %v", j.Spec.ID, j.state)
	}
	if err := j.transition(now, StateSuspended); err != nil {
		return err
	}
	j.acct.Suspensions++
	return nil
}

// Resume continues execution on the same machine at time now, keeping
// accumulated progress (NetBatch host-level suspend/resume).
func (j *Live) Resume(now float64) error {
	if j.state != StateSuspended {
		return fmt.Errorf("job %d: resume from state %v", j.Spec.ID, j.state)
	}
	return j.transition(now, StateRunning)
}

// RestartFrom aborts the current attempt at time now, destroying all
// progress (NetBatch rescheduling restarts jobs from the beginning,
// §2.3). The job leaves its machine and enters StateTransit; any time
// spent there before the next Enqueue (the simulator's reschedule
// transfer overhead) accrues as reschedule overhead. Legal from
// StateSuspended (rescheduling a suspended job) and StateRunning (used
// by the duplication extension).
func (j *Live) RestartFrom(now float64) error {
	switch j.state {
	case StateSuspended, StateRunning:
	default:
		return fmt.Errorf("job %d: restart from state %v", j.Spec.ID, j.state)
	}
	if err := j.transition(now, StateTransit); err != nil {
		return err
	}
	j.acct.WastedExec += j.attemptExecWall
	j.attemptExecWall = 0
	j.progress = 0
	j.acct.Restarts++
	j.Machine = -1
	return nil
}

// Kill aborts the job at time now after its host machine failed or
// entered a maintenance window, destroying the current attempt's
// progress (NetBatch restarts killed jobs from the beginning, like any
// restart). Legal from StateRunning and StateSuspended; the job enters
// StateTransit until the platform requeues it, and any interval spent
// there accrues as reschedule overhead.
func (j *Live) Kill(now float64) error {
	switch j.state {
	case StateRunning, StateSuspended:
	default:
		return fmt.Errorf("job %d: kill from state %v", j.Spec.ID, j.state)
	}
	if err := j.transition(now, StateTransit); err != nil {
		return err
	}
	j.acct.WastedExec += j.attemptExecWall
	j.attemptExecWall = 0
	j.progress = 0
	j.acct.Kills++
	j.Machine = -1
	return nil
}

// MigrateFrom moves the suspended job toward another pool at time now
// while KEEPING its execution progress — the Condor-style checkpoint
// migration the paper contrasts with restart-based rescheduling (§2.3).
// The job enters StateTransit; the transfer overhead accrues as
// reschedule overhead until the next Enqueue.
func (j *Live) MigrateFrom(now float64) error {
	if j.state != StateSuspended {
		return fmt.Errorf("job %d: migrate from state %v", j.Spec.ID, j.state)
	}
	if err := j.transition(now, StateTransit); err != nil {
		return err
	}
	// Progress and attempt wall-clock are preserved: the destination
	// resumes from the checkpoint.
	j.Machine = -1
	return nil
}

// RescheduleWait records a wait-queue reschedule at time now: the job
// leaves its pool queue for another pool, without ever having run
// there, entering StateTransit until it is enqueued at the destination.
// No progress is lost (it had none).
func (j *Live) RescheduleWait(now float64) error {
	if j.state != StateWaiting {
		return fmt.Errorf("job %d: wait-reschedule from state %v", j.Spec.ID, j.state)
	}
	if err := j.transition(now, StateTransit); err != nil {
		return err
	}
	j.acct.WaitReschedules++
	return nil
}

// Complete finishes the job at time now. It verifies that the job has
// actually executed its full service demand (within a float tolerance)
// and freezes accounting.
func (j *Live) Complete(now float64) error {
	if j.state != StateRunning {
		return fmt.Errorf("job %d: complete from state %v", j.Spec.ID, j.state)
	}
	if err := j.transition(now, StateCompleted); err != nil {
		return err
	}
	const tol = 1e-6
	if j.progress < j.Spec.Work*(1-tol)-tol {
		return fmt.Errorf("job %d: completed with progress %v of work %v",
			j.Spec.ID, j.progress, j.Spec.Work)
	}
	j.Completed = now
	j.Machine = -1
	return nil
}
