package experiments

import (
	"fmt"
	"time"

	"netbatch/internal/job"
	"netbatch/internal/obs"
	"netbatch/internal/sim"
)

// cellTelemetry wires one cell's simulation config into the run-level
// observability sinks (Options.Trace / RunLog / Logf) and brackets the
// run with cell_start / cell_done records. The returned finish func
// must be called exactly once with the run's outcome.
//
// The ETA estimate is deliberately crude: it extrapolates the wall-time
// cost of the remaining simulated horizon from the rate observed so
// far, with the horizon approximated by the last job submission time.
// Runs drain past the last submission, so the estimate is a floor — but
// it converges as the frontier advances and is good enough to answer
// "minutes or hours?" for a year-scale cell.
func cellTelemetry(cfg *sim.Config, specs []job.Spec, scenarioID, policyName string, rep int, opts Options) func(*sim.Result, error) {
	if opts.Trace == nil && opts.RunLog == nil && (opts.Logf == nil || opts.ProgressEvery <= 0) {
		// Telemetry disabled: not even the cell label is formatted —
		// the disabled path must not allocate (the bench gate budgets
		// the whole matrix hot path).
		return func(*sim.Result, error) {}
	}
	label := cellLabel(scenarioID, policyName, rep)
	if opts.Trace != nil {
		cfg.Trace = opts.Trace.Process("cell " + label)
	}
	horizon := 0.0
	for i := range specs {
		if specs[i].Submit > horizon {
			horizon = specs[i].Submit
		}
	}
	start := time.Now()
	emit := func(rec obs.RunRecord) {
		rec.Cell = label
		rec.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		if opts.RunLog != nil {
			if err := opts.RunLog.Emit(rec); err != nil && opts.Logf != nil {
				opts.Logf("experiments: cell %s: runlog: %v", label, err)
			}
			return
		}
		if opts.Logf != nil && rec.Type == "progress" {
			opts.Logf("experiments: cell %s: t=%.0f events=%d (%.0f ev/s) eta=%.0fs",
				label, rec.SimTime, rec.Events, rec.EventsPerSec, rec.ETASec)
		}
	}
	if opts.ProgressEvery > 0 && (opts.RunLog != nil || opts.Logf != nil) {
		cfg.ProgressEvery = opts.ProgressEvery
		cfg.Progress = func(p obs.Progress) {
			rec := obs.RunRecord{
				Type:    "progress",
				SimTime: p.SimTime,
				Events:  p.Events,
			}
			if wall := time.Since(start).Seconds(); wall > 0 {
				rec.EventsPerSec = float64(p.Events) / wall
				if p.SimTime > 0 && p.SimTime < horizon {
					rec.ETASec = wall * (horizon - p.SimTime) / p.SimTime
				}
			}
			emit(rec)
		}
	}
	if opts.RunLog != nil {
		emit(obs.RunRecord{Type: "cell_start"})
	}
	return func(res *sim.Result, err error) {
		if opts.RunLog == nil {
			return
		}
		rec := obs.RunRecord{Type: "cell_done"}
		if err != nil {
			rec.Err = err.Error()
		} else if res != nil {
			rec.SimTime = res.Makespan
			rec.Events = res.Events
			if wall := time.Since(start).Seconds(); wall > 0 {
				rec.EventsPerSec = float64(res.Events) / wall
			}
		}
		emit(rec)
	}
}

// cellLabel names one cell in timelines and run logs.
func cellLabel(scenarioID, policyName string, rep int) string {
	return fmt.Sprintf("%s/%s/r%d", scenarioID, policyName, rep)
}
