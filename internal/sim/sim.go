// Package sim is the reproduction's ASCA equivalent: a deterministic
// discrete-event simulator of the NetBatch platform. Like the original
// Agent-based Simulator for Compute Allocation (§3.1, [12]), it "models
// the operational capability and semantics of various fine-grained
// components of NetBatch such as sites, pools, queues, job requirements
// and priorities, virtual and physical pool managers, round-robin
// physical pool scheduling", samples system state every simulated
// minute, and feeds the post-analysis metrics layer.
//
// Semantics implemented (with paper references):
//
//   - Virtual pool manager: jobs are queued on submission and sent to a
//     physical pool chosen by the initial scheduler among the job's
//     eligible pools; a pool with no machine class meeting the job's
//     static requirements is skipped (§2.1). The simulator applies that
//     rule once per decision (eligiblePools) for schedulers and
//     policies alike, and rejects a pick outside the list.
//   - Physical pool manager: dispatch to the first eligible available
//     machine; otherwise preempt a lower-priority running job
//     (host-level suspension, §2.2); otherwise queue (§2.1).
//   - Suspension: the victim stays parked on its host and resumes with
//     progress intact once capacity frees and no higher-priority waiting
//     job wants it; jobs can be suspended repeatedly (§2.2).
//   - Dynamic rescheduling: a core.Policy decides, on each suspension
//     and on each wait-queue timeout, whether to restart the job at an
//     alternate pool (losing progress — NetBatch restarts from the
//     beginning, §2.3/§3.2) or, for migration policies, to move it with
//     progress preserved.
//
// Architecturally a run is one world (world.go): the clock, the single
// event queue and all simulation state, plus a fixed table of ten event
// kinds and one dispatch switch over them. The handlers are world
// methods grouped by mechanism — placement/preemption (placement.go),
// dynamic rescheduling (resched.go), stale-view snapshots
// (snapshot.go), machine faults and maintenance windows (faults.go) —
// and series accounting (accounting.go) integrates between events. The
// mechanisms are policy-free: decisions belong to the configured
// scheduler and core.Policy. Every event is (time, kind, a, b): its
// payload is two integer words, and state a handler needs beyond them
// lives in a world field that a snapshot section saves. One serial loop
// (serial.go) pops the queue in (time, scheduling order) and dispatches
// every event; checkpoint/resume (checkpoint.go, delta.go) runs on the
// same loop. Parallelism lives one level up, across independent runs
// (the experiments matrix's -jobs worker pool). See
// docs/ARCHITECTURE.md for the layering.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/obs"
	"netbatch/internal/sched"
	"netbatch/internal/stats"
)

// ErrInvalidConfig wraps every Config rejection: a missing required
// field, a negative or non-finite parameter, or an inconsistent
// combination of options.
var ErrInvalidConfig = errors.New("sim: invalid config")

// Config parameterizes one simulation run.
type Config struct {
	// Platform is the static machine/pool model. Required.
	Platform *cluster.Platform
	// Initial is the virtual pool manager's initial scheduler. Required.
	Initial sched.InitialScheduler
	// Policy is the dynamic rescheduling strategy. Required.
	Policy core.Policy

	// SampleEvery is the state-sampling period in minutes (ASCA samples
	// every minute). Zero means the default, 1; negative values are
	// rejected.
	SampleEvery float64
	// SeriesBin is the aggregation bin for the output time series in
	// minutes (the paper aggregates per 100 minutes). Zero means the
	// default, 100; negative values are rejected.
	SeriesBin float64
	// RescheduleOverhead is the transfer delay in minutes charged on
	// every reschedule move (§5 future work: "network delays and other
	// rescheduling associated overheads"). Default 0, matching the
	// paper's evaluation.
	RescheduleOverhead float64
	// UtilStaleness makes the PoolView's utilization snapshots lag by up
	// to this many minutes, modeling cross-pool propagation delay
	// (§3.2.2's practicality caveat). Default 0 (live view).
	UtilStaleness float64
	// DecisionDelay is how long after a suspension the rescheduling
	// policy is consulted, modeling ASCA's minute-stepped agents (§3.1).
	// A job that resumes within the delay is never offered for
	// rescheduling. Default 1 minute; negative values are rejected.
	DecisionDelay float64
	// Faults enables the fault & maintenance model (faults.go):
	// deterministic per-site machine crashes and scheduled maintenance
	// windows with a configurable victim-job policy. The zero value
	// disables it entirely and leaves every output byte-identical.
	Faults FaultConfig
	// MaxTime aborts the run if simulated time passes this cap,
	// indicating livelock. Zero means the default, 10,000,000 minutes;
	// negative values are rejected.
	MaxTime float64
	// DisableSampling turns off per-minute sampling (for benchmarks
	// that only need job metrics).
	DisableSampling bool
	// Context cooperatively cancels a long run: the loop polls it
	// every few hundred events and aborts with its error. Nil means the
	// run cannot be canceled.
	Context context.Context

	// CheckpointEvery takes a full-state snapshot every this many
	// simulated minutes, at the first event boundary past each mark.
	// 0 disables checkpointing. Resuming from any emitted snapshot reproduces the
	// straight run bit-identically (jobs, series, counters, event
	// counts). Requires CheckpointSink.
	CheckpointEvery float64
	// CheckpointSink receives each encoded snapshot. A sink error
	// aborts the run.
	CheckpointSink func(Checkpoint) error
	// CheckpointLabel is free-form metadata embedded in every emitted
	// snapshot (e.g. the experiment cell that produced it). It does not
	// participate in compatibility checks.
	CheckpointLabel string
	// CheckpointKeyframe delta-encodes the periodic snapshot stream:
	// every Nth emitted snapshot is a full keyframe and the snapshots
	// between are deltas against the immediately previous snapshot,
	// carrying only the job records that changed (Checkpoint.Delta
	// marks them). 0 or 1 emits only full snapshots. The first
	// snapshot of any run — including a resumed one — is always full,
	// so every delta chains back to a keyframe
	// in the same run. A delta that would not be smaller than the full
	// encoding is emitted full instead. Resuming from a delta requires
	// reconstructing it first: apply ApplySnapshotDelta along the chain
	// from the nearest keyframe (the experiments runner does this for
	// its checkpoint directories).
	CheckpointKeyframe int
	// Metrics, when non-nil, receives execution counters — events
	// dispatched, alias retirements, checkpoint captures and bytes, and
	// event-queue depth/tombstone high-water marks (see observe.go for
	// names).
	// Handles are resolved once per run; with Metrics nil every record
	// site degenerates to a nil check — no allocation, no atomics.
	// Metrics describe the execution, never the simulated system, and
	// are excluded from the bit-identity contract.
	Metrics *obs.Registry
	// Trace, when non-nil, records a Chrome trace_event timeline of
	// the run into the given process group: one "serial" track holding
	// a "run" span for the whole loop (its events arg is the number of
	// events dispatched) and a span per checkpoint capture.
	// Timestamps are wall-clock — the timeline attributes real
	// execution time. Like Metrics, tracing never affects event order,
	// RNG draws, or results.
	Trace *obs.Process
	// Progress, when non-nil, is invoked from the loop's ctx-poll
	// stride (every 256 events) at most once per ProgressEvery of wall
	// time with the current simulated-time frontier and event count.
	// The callback must be fast and must not touch simulation state.
	Progress func(obs.Progress)
	// ProgressEvery throttles Progress callbacks. Default 500ms.
	ProgressEvery time.Duration

	// ResumeFrom is an encoded snapshot (Checkpoint.Data) to resume
	// from instead of starting at t=0. The snapshot must come from a
	// run with the same configuration and workload; mismatches fail
	// with ErrSnapshotMismatch before any simulation state is touched.
	// Stateful schedulers/policies are restored from their snapshot
	// sections through the Stateful contract.
	ResumeFrom []byte
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	invalid := func(format string, args ...any) (Config, error) {
		return out, fmt.Errorf("%w: "+format, append([]any{ErrInvalidConfig}, args...)...)
	}
	if out.Platform == nil {
		return invalid("config needs a platform")
	}
	if out.Initial == nil {
		return invalid("config needs an initial scheduler")
	}
	if out.Policy == nil {
		return invalid("config needs a rescheduling policy")
	}
	// A non-finite value would never compare usefully against the
	// negativity checks below: NaN disables the MaxTime livelock cap and
	// schedules NaN-timed events, and +Inf staleness spins the view
	// refresh loop forever inside one event.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SampleEvery", out.SampleEvery},
		{"SeriesBin", out.SeriesBin},
		{"RescheduleOverhead", out.RescheduleOverhead},
		{"UtilStaleness", out.UtilStaleness},
		{"DecisionDelay", out.DecisionDelay},
		{"MaxTime", out.MaxTime},
		{"CheckpointEvery", out.CheckpointEvery},
		{"Faults.MTBF", out.Faults.MTBF},
		{"Faults.MTTR", out.Faults.MTTR},
		{"Faults.MaintPeriod", out.Faults.MaintPeriod},
		{"Faults.MaintDuration", out.Faults.MaintDuration},
		{"Faults.MaintFraction", out.Faults.MaintFraction},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return invalid("non-finite %s %v", f.name, f.v)
		}
	}
	// The policy's own durations reach the event schedule too: a
	// migration overhead delays every migrated job's arrival, and a
	// wait threshold arms every queue-stall timer.
	if mig, ok := out.Policy.(core.Migrator); ok {
		if o := mig.MigrationOverhead(); math.IsNaN(o) || math.IsInf(o, 0) || o < 0 {
			return invalid("policy %s: negative or non-finite migration overhead %v", out.Policy.Name(), o)
		}
	}
	if th := out.Policy.WaitThreshold(); math.IsNaN(th) || math.IsInf(th, 0) {
		return invalid("policy %s: non-finite wait threshold %v", out.Policy.Name(), th)
	}
	if out.SampleEvery < 0 {
		return invalid("negative sample period %v", out.SampleEvery)
	}
	if out.SampleEvery == 0 {
		out.SampleEvery = 1
	}
	if out.SeriesBin < 0 {
		return invalid("negative series bin %v", out.SeriesBin)
	}
	if out.SeriesBin == 0 {
		out.SeriesBin = 100
	}
	if out.RescheduleOverhead < 0 {
		return invalid("negative reschedule overhead %v", out.RescheduleOverhead)
	}
	if out.UtilStaleness < 0 {
		return invalid("negative staleness %v", out.UtilStaleness)
	}
	if out.UtilStaleness > 0 && out.DisableSampling {
		return invalid("UtilStaleness requires sampling (snapshots refresh at sample events)")
	}
	if out.Platform.NumSites() > 1 && out.Platform.MaxRTT() > 0 && out.DisableSampling {
		return invalid("inter-site RTT requires sampling (view ageing refreshes at sample events)")
	}
	if out.DecisionDelay < 0 {
		return invalid("negative decision delay %v", out.DecisionDelay)
	}
	if out.CheckpointEvery < 0 {
		return invalid("negative checkpoint interval %v", out.CheckpointEvery)
	}
	if out.CheckpointEvery > 0 && out.CheckpointSink == nil {
		return invalid("CheckpointEvery requires a CheckpointSink")
	}
	if out.CheckpointKeyframe < 0 {
		return invalid("negative checkpoint keyframe interval %d", out.CheckpointKeyframe)
	}
	if err := out.Faults.validate(); err != nil {
		return out, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	if out.DecisionDelay == 0 {
		out.DecisionDelay = 1
	}
	if out.MaxTime < 0 {
		return invalid("negative max time %v", out.MaxTime)
	}
	if out.MaxTime == 0 {
		out.MaxTime = 1e7
	}
	return out, nil
}

// Result is a completed simulation run.
type Result struct {
	// Jobs are the completed job records, in spec order. They point
	// into one slab, and Jobs[i].Spec is &specs[i] of the specs given
	// to Run: callers must not mutate specs while they hold the Result.
	Jobs []*job.Job
	// Util is the platform utilization (%) time series, binned.
	Util *stats.TimeSeries
	// Suspended is the suspended-job-count time series, binned.
	Suspended *stats.TimeSeries
	// Waiting is the waiting-job-count time series, binned.
	Waiting *stats.TimeSeries
	// SiteUtil holds per-site utilization (%) series, indexed by site
	// ID. Nil on single-site platforms (it would duplicate Util) and
	// when sampling is disabled.
	SiteUtil []*stats.TimeSeries
	// Makespan is when the last job completed, minutes.
	Makespan float64
	// Events is the number of processed simulator events. Per-minute
	// sampling is integrated incrementally and contributes no events;
	// only state transitions (and rare stale-view refreshes) count.
	Events int64
	// Preemptions counts suspension events.
	Preemptions int64
	// Restarts counts rescheduling restarts of suspended jobs.
	Restarts int64
	// Migrations counts progress-preserving moves.
	Migrations int64
	// WaitMoves counts wait-queue reschedules.
	WaitMoves int64
	// CrossSiteSubmits counts initial dispatches to a pool at a site
	// other than the job's submission site.
	CrossSiteSubmits int64
	// CrossSiteMoves counts reschedules (restart, migration or wait
	// move) that crossed a site boundary, paying the inter-site delay.
	CrossSiteMoves int64

	// Fault & maintenance counters (all zero unless Config.Faults is
	// enabled). Crashes, MaintWindows and DownCoreMinutes derive from
	// the downtime logs clamped to the makespan.
	//
	// Crashes counts machine-crash events before the makespan.
	Crashes int64
	// MaintWindows counts maintenance-window openings before the
	// makespan.
	MaintWindows int64
	// Kills counts jobs killed by crashes or maintenance.
	Kills int64
	// Requeues counts kill-and-requeue dispatches back through the
	// wait-queue path (equal to Kills today; drain kills nothing).
	Requeues int64
	// WorkLost is the execution wall-clock (minutes) destroyed by
	// kills — the goodput loss attributable to faults.
	WorkLost float64
	// DownCoreMinutes is the capacity lost to downtime: the integral
	// of down cores over the run, in core-minutes.
	DownCoreMinutes float64

	// AliasRetirements counts alias-flag clears: a job attached to a
	// machine at a site other than its queue pool's site (a cross-site
	// alias, see world.noteAttach) detaching from that machine. It
	// describes the execution, not the simulated system: a resumed run
	// counts only its tail. Excluded from bit-identity comparisons and
	// not persisted in snapshots.
	AliasRetirements int64

	// Rollbacks is always 0. It counted the speculation rollbacks of a
	// retired partitioned engine and stays so that tools reading Result
	// (the repository benchmark's cell digests) keep compiling.
	Rollbacks int64
}

// Run simulates the specs on the configured platform until every job
// completes. Specs must be sorted by submission time (a trace.Trace
// guarantees this). With Config.ResumeFrom set, the run continues from
// the snapshot instead of t=0 and produces results bit-identical to a
// straight run.
//
// Run never writes to specs, and it shares them instead of copying:
// Result.Jobs[i].Spec is &specs[i], so callers must not mutate specs
// while they hold the Result.
func Run(cfg Config, specs []job.Spec) (*Result, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	w, err := buildWorld(full, specs)
	if err != nil {
		return nil, err
	}
	var sn *snapshot
	if len(full.ResumeFrom) > 0 {
		if IsDeltaSnapshot(full.ResumeFrom) {
			return nil, fmt.Errorf("%w: ResumeFrom is a delta snapshot; reconstruct it with ApplySnapshotDelta from its keyframe chain first", ErrSnapshotMismatch)
		}
		sn, err = decodeSnapshot(full.ResumeFrom)
		if err != nil {
			return nil, err
		}
	}
	return runSerial(w, sn)
}
