package job

// JobState is the complete mutable state of a job in flight, exported
// for checkpointing: its outcome record's fields and its Live attempt
// state. Together with the immutable Spec it fully determines the
// job's future behavior: restoring it mid-run and continuing produces
// accounting bit-identical to a never-interrupted run.
type JobState struct {
	State           State
	StateSince      float64
	Pool            int
	Machine         int
	Speed           float64
	Progress        float64
	AttemptExecWall float64
	Acct            Accounting
	FirstStart      float64
	Completed       float64
}

// ExportState snapshots the job's mutable state. It is a pure read.
func (j *Live) ExportState() JobState {
	return JobState{
		State:           j.state,
		StateSince:      j.stateSince,
		Pool:            j.Pool,
		Machine:         j.Machine,
		Speed:           j.speed,
		Progress:        j.progress,
		AttemptExecWall: j.attemptExecWall,
		Acct:            j.acct,
		FirstStart:      j.FirstStart,
		Completed:       j.Completed,
	}
}

// RestoreState overwrites the job's mutable state, its outcome record's
// included, with a previously exported snapshot.
func (j *Live) RestoreState(st JobState) {
	j.state = st.State
	j.stateSince = st.StateSince
	j.Pool = st.Pool
	j.Machine = st.Machine
	j.speed = st.Speed
	j.progress = st.Progress
	j.attemptExecWall = st.AttemptExecWall
	j.acct = st.Acct
	j.FirstStart = st.FirstStart
	j.Completed = st.Completed
}
