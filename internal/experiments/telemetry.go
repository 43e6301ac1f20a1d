package experiments

import (
	"fmt"
	"time"

	"netbatch/internal/job"
	"netbatch/internal/obs"
	"netbatch/internal/sim"
)

// cellTelemetry records one cell's execution into Options.Metrics and
// Options.RunLog from the facts the simulator reports: the Progress
// hook, each Checkpoint's wall time and the Result's counters. A nil
// *cellTelemetry is the disabled path: newCellTelemetry returns it
// without formatting or allocating, and its methods return at once.
type cellTelemetry struct {
	opts  Options
	label string
	start time.Time
	// captures and bytes tally the checkpoint files the cell wrote.
	captures, bytes int64
}

// newCellTelemetry starts one cell's telemetry. With a run log it emits
// cell_start and sets cfg.Progress to emit a progress record at most
// once per Options.ProgressEvery of wall time.
//
// The ETA estimate is deliberately crude: it extrapolates the wall-time
// cost of the remaining simulated horizon from the rate observed so
// far, with the horizon approximated by the last job submission time.
// Runs drain past the last submission, so the estimate is a floor — but
// it converges as the frontier advances and is good enough to answer
// "minutes or hours?" for a year-scale cell.
func newCellTelemetry(cfg *sim.Config, specs []job.Spec, scenarioID, policyName string, rep int, opts Options) *cellTelemetry {
	if opts.Metrics == nil && opts.RunLog == nil {
		return nil
	}
	ct := &cellTelemetry{opts: opts, label: cellLabel(scenarioID, policyName, rep), start: time.Now()}
	if opts.RunLog == nil {
		return ct
	}
	horizon := 0.0
	for i := range specs {
		horizon = max(horizon, specs[i].Submit)
	}
	next := ct.start.Add(opts.ProgressEvery)
	cfg.Progress = func(simTime float64, events int64) {
		now := time.Now()
		if now.Before(next) {
			return
		}
		next = now.Add(ct.opts.ProgressEvery)
		rec := obs.RunRecord{Type: "progress", SimTime: simTime, Events: events}
		if wall := now.Sub(ct.start).Seconds(); wall > 0 {
			rec.EventsPerSec = float64(events) / wall
			if simTime > 0 && simTime < horizon {
				rec.ETASec = wall * (horizon - simTime) / simTime
			}
		}
		ct.emit(rec)
	}
	ct.emit(obs.RunRecord{Type: "cell_start"})
	return ct
}

// emit stamps rec with the cell and its wall time and appends it to the
// run log, if there is one.
func (ct *cellTelemetry) emit(rec obs.RunRecord) {
	rec.Cell = ct.label
	rec.WallMS = millis(time.Since(ct.start))
	if err := ct.opts.RunLog.Emit(rec); err != nil && ct.opts.Logf != nil {
		ct.opts.Logf("experiments: cell %s: runlog: %v", ct.label, err)
	}
}

// checkpoint records one checkpoint file, written in write after the
// engine captured and encoded it.
func (ct *cellTelemetry) checkpoint(ck sim.Checkpoint, write time.Duration) {
	if ct == nil {
		return
	}
	ct.captures++
	ct.bytes += int64(len(ck.Data))
	ct.emit(obs.RunRecord{Type: "checkpoint", Bytes: int64(len(ck.Data)), CaptureMS: millis(ck.Wall), WriteMS: millis(write)})
}

// done records the cell's outcome: its checkpoint files and its
// Result's counters into the registry, and a cell_done record.
func (ct *cellTelemetry) done(res *sim.Result, err error) {
	if ct == nil {
		return
	}
	reg := ct.opts.Metrics
	reg.Counter("sim.checkpoint.captures").Add(ct.captures)
	reg.Counter("sim.checkpoint.bytes").Add(ct.bytes)
	rec := obs.RunRecord{Type: "cell_done"}
	if err != nil {
		rec.Err = err.Error()
	} else if res != nil {
		reg.Counter("sim.events").Add(res.Events)
		reg.Counter("sim.alias_retirements").Add(res.AliasRetirements)
		reg.Gauge("sim.queue.depth_max").Max(int64(res.QueueDepthMax))
		reg.Gauge("sim.queue.tombstones_max").Max(int64(res.QueueTombstonesMax))
		rec.SimTime = res.Makespan
		rec.Events = res.Events
		if wall := time.Since(ct.start).Seconds(); wall > 0 {
			rec.EventsPerSec = float64(res.Events) / wall
		}
	}
	ct.emit(rec)
}

// millis is d in milliseconds, to the microsecond.
func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}

// cellLabel names one cell in run logs and timelines.
func cellLabel(scenarioID, policyName string, rep int) string {
	return fmt.Sprintf("%s/%s/r%d", scenarioID, policyName, rep)
}
