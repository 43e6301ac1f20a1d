package sim

// Replay-based bisection of determinism regressions. Given two
// snapshots of one recorded run — an earlier one ("from") and a later
// one ("to") — ReplayBisect resumes from the earlier snapshot, replays
// the interval twice with full event logging, and stops each replay at
// the exact boundary the later snapshot was taken at (the processed
// event count recorded in its header). Three comparisons localize a
// regression:
//
//   - replay vs replay: if the two replays disagree, the simulator
//     itself is nondeterministic, and the first diverging event
//     (position, time, kind, payload words) is reported exactly;
//   - replay vs recorded: if the replays agree with each other but
//     their state at the target boundary differs from the recorded
//     snapshot, the divergence is between this build/replay and the
//     recorded run, localized to the (from, to] interval — re-running
//     with a finer checkpoint cadence brackets it tighter;
//   - events reached: a replay that completes without matching the
//     recorded event count diverged structurally.
//
// Snapshot states compare bytewise: the encoding is deterministic, so
// equal states always encode to equal bytes (label and cadence metadata
// are excluded from the compared region).

import (
	"bytes"
	"errors"
	"fmt"

	"netbatch/internal/job"
)

// errReplayStop is the internal sentinel the serial loop returns when a
// replay reaches its target event count; the capture buffer then holds
// the boundary snapshot.
var errReplayStop = errors.New("sim: replay reached target boundary")

// EventRecord is one dispatched event in a replay log.
type EventRecord struct {
	// T is the simulated time the event executed at.
	T float64
	// Kind is the event kind's registered name.
	Kind string
	// A and B are the event's payload words (job index, pool, site,
	// machine — whatever the kind carries; unused words are 0).
	A, B int64
}

// replayRecorder accumulates the serial loop's event log.
type replayRecorder struct {
	events []EventRecord
}

func (r *replayRecorder) record(t float64, kind string, a, b int64) {
	r.events = append(r.events, EventRecord{T: t, Kind: kind, A: a, B: b})
}

// BisectReport is ReplayBisect's finding.
type BisectReport struct {
	// FromTime/ToTime and FromEvents/ToEvents are the recorded
	// boundaries of the replayed interval.
	FromTime, ToTime     float64
	FromEvents, ToEvents int64
	// ReplayedEvents counts events the replay processed in the interval.
	ReplayedEvents int64
	// Deterministic reports that the two independent replays agreed
	// event for event and byte for byte.
	Deterministic bool
	// MatchesRecorded reports that the replayed state at the target
	// boundary is byte-identical to the recorded `to` snapshot.
	MatchesRecorded bool
	// FirstDivergence describes the earliest located divergence, empty
	// when Deterministic && MatchesRecorded.
	FirstDivergence string
}

// Clean reports that the interval replays deterministically and
// reproduces the recorded run exactly.
func (r *BisectReport) Clean() bool { return r.Deterministic && r.MatchesRecorded }

// ReplayBisect replays the interval between two snapshots of one
// recorded run to localize a determinism regression (see the file
// comment for the method). cfg and specs must be the configuration and
// workload that produced the snapshots; mismatches fail with
// ErrSnapshotMismatch.
func ReplayBisect(cfg Config, specs []job.Spec, from, to []byte) (*BisectReport, error) {
	snFrom, err := decodeSnapshot(from)
	if err != nil {
		return nil, fmt.Errorf("from snapshot: %w", err)
	}
	snTo, err := decodeSnapshot(to)
	if err != nil {
		return nil, fmt.Errorf("to snapshot: %w", err)
	}
	if snFrom.configHash != snTo.configHash || snFrom.kindHash != snTo.kindHash {
		return nil, fmt.Errorf("%w: the two snapshots come from different configurations", ErrSnapshotMismatch)
	}
	if snFrom.events > snTo.events {
		return nil, fmt.Errorf("%w: `from` snapshot (%d events) is later than `to` (%d events)",
			ErrSnapshotMismatch, snFrom.events, snTo.events)
	}

	rep := &BisectReport{
		FromTime: snFrom.time, ToTime: snTo.time,
		FromEvents: snFrom.events, ToEvents: snTo.events,
	}
	replay := func() ([]byte, *replayRecorder, error) {
		run := cfg
		run.ResumeFrom = from
		run.CheckpointEvery = 0
		run.CheckpointSink = nil
		run.stopAtEvents = snTo.events
		var captured []byte
		run.captureAt = &captured
		rec := &replayRecorder{}
		run.eventLog = rec
		_, err := Run(run, specs)
		switch {
		case errors.Is(err, errReplayStop):
			return captured, rec, nil
		case err != nil:
			return nil, nil, err
		default:
			return nil, rec, nil // run completed before reaching the target
		}
	}

	capA, recA, err := replay()
	if err != nil {
		return nil, fmt.Errorf("replay 1: %w", err)
	}
	capB, recB, err := replay()
	if err != nil {
		return nil, fmt.Errorf("replay 2: %w", err)
	}
	rep.ReplayedEvents = int64(len(recA.events))

	if div := firstLogDivergence(recA, recB); div != "" {
		rep.FirstDivergence = div
		return rep, nil
	}
	if capA == nil || capB == nil {
		rep.Deterministic = capA == nil && capB == nil
		rep.FirstDivergence = fmt.Sprintf(
			"replay completed the run after %d events without reaching the recorded boundary (%d events at t=%v): the replay diverged structurally from the recorded run inside (%v, %v]",
			snFrom.events+rep.ReplayedEvents, snTo.events, snTo.time, snFrom.time, snTo.time)
		return rep, nil
	}
	if !bytes.Equal(capA, capB) {
		rep.FirstDivergence = "the two replays processed identical event streams but captured different states — state outside the event stream is nondeterministic"
		return rep, nil
	}
	rep.Deterministic = true

	snCap, err := decodeSnapshot(capA)
	if err != nil {
		return nil, fmt.Errorf("captured snapshot: %w", err)
	}
	if snCap.events != snTo.events {
		rep.FirstDivergence = fmt.Sprintf(
			"replay stopped at a boundary with %d events, recorded snapshot has %d: event counts diverged inside (%v, %v]",
			snCap.events, snTo.events, snFrom.time, snTo.time)
		return rep, nil
	}
	if !bytes.Equal(snCap.comparable, snTo.comparable) {
		rep.FirstDivergence = fmt.Sprintf(
			"replay is deterministic but its state at t=%v (event %d) differs from the recorded snapshot: this build diverges from the recorded run inside (%v, %v] — re-run the recording with a finer -checkpoint-every to bracket the first diverging event",
			snCap.time, snCap.events, snFrom.time, snTo.time)
		return rep, nil
	}
	rep.MatchesRecorded = true
	return rep, nil
}

// firstLogDivergence compares two replays' event logs and describes
// the earliest mismatch, or returns "".
func firstLogDivergence(a, b *replayRecorder) string {
	la, lb := a.events, b.events
	n := min(len(la), len(lb))
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf(
				"first diverging event: event %d — replay 1 {t=%v kind=%s a=%d b=%d} vs replay 2 {t=%v kind=%s a=%d b=%d}",
				i, la[i].T, la[i].Kind, la[i].A, la[i].B, lb[i].T, lb[i].Kind, lb[i].A, lb[i].B)
		}
	}
	if len(la) != len(lb) {
		return fmt.Sprintf(
			"processed %d events in replay 1 but %d in replay 2 (first %d identical)",
			len(la), len(lb), n)
	}
	return ""
}
