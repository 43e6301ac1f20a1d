// Package experiments defines one runnable experiment per table and
// figure in the paper's evaluation (§3), plus the high-suspension
// text-only scenario. Each experiment is a plan — a declarative
// (scenario × policy × seed) matrix — and a renderer. RunAll executes
// the plans on one bounded worker pool, each distinct plan once: it
// generates each replicate's synthetic trace and simulates every
// strategy. Render then lays the results out in the paper's form — as
// point values for a single seed, or as mean ± 95% CI across seed
// replicates. IDs lists the registered experiments; shape_test.go
// asserts the paper's qualitative result shapes against each of them.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/metrics"
	"netbatch/internal/obs"
	"netbatch/internal/report"
	"netbatch/internal/sched"
	"netbatch/internal/stats"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives trace generation and all policy randomness for the
	// first replicate; replicate r > 0 forks its seed from Seed with
	// keyed, order-independent derivation (stats.ForkSeed).
	Seed uint64
	// Seeds is the replication count per (scenario, policy) cell.
	// With Seeds > 1, tables report mean ± 95% CI across replicates.
	// Values < 1 default to 1.
	Seeds int
	// Scale shrinks the platform and the arrival rates together
	// (per-pool load is preserved). 1.0 is paper scale; tests and
	// benchmarks use ~0.1. Values <= 0 default to 1.0.
	Scale float64
	// Jobs bounds the matrix runner's worker pool. Values <= 0 default
	// to runtime.NumCPU(). Results are identical for every value.
	Jobs int
	// Overhead is the reschedule transfer overhead in minutes (the §5
	// future-work knob; 0 matches the paper's evaluation).
	Overhead float64
	// Context cancels in-flight simulations cooperatively. Nil defaults
	// to context.Background().
	Context context.Context

	// CheckpointDir enables per-cell checkpoint/restore: every cell
	// periodically writes its simulation snapshot to
	// <dir>/<scenario>_p<policy>_r<replicate>_t<time>.ckpt (atomically,
	// zero-padded time so names sort chronologically). The history is
	// kept: Resume picks the newest, delta files chain back to their
	// keyframe, and two runs' directories compare with `diff -r`. Empty
	// disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in simulated minutes.
	// Values <= 0 default to one simulated day (1440) when
	// CheckpointDir is set.
	CheckpointEvery float64
	// CheckpointKeyframe delta-encodes the checkpoint stream: every Nth
	// snapshot of a cell is a full keyframe (.ckpt file), the ones
	// between are deltas against the previous snapshot (.dckpt files
	// holding the job records that changed, typically a small fraction
	// of the full size). Resume
	// reconstructs delta files transparently from their keyframe chain.
	// 0 or 1 writes only full snapshots.
	CheckpointKeyframe int
	// Resume makes each cell continue from its checkpoint file when a
	// compatible one exists in CheckpointDir, so an interrupted matrix
	// run re-executes only the tail of each cell. Incompatible or
	// corrupted checkpoints fall back to a fresh run (reported through
	// Logf). Results are bit-identical either way.
	Resume bool
	// Logf, when set, receives progress and fallback warnings (e.g. a
	// checkpoint that could not be resumed). Nil discards them.
	Logf func(format string, args ...any)

	// Metrics, when set, is the shared registry every cell's simulation
	// records execution counters into (see internal/obs and the
	// sim.Config.Metrics names). Nil disables metric recording at the
	// simulator's nil-sink fast path.
	Metrics *obs.Registry
	// Trace, when set, collects a Chrome trace_event timeline: each
	// cell becomes one process group ("cell <scenario>/<policy>/r<n>")
	// holding that run's "serial" track. Write it out with
	// Trace.WriteJSON after Run returns.
	Trace *obs.Tracer
	// RunLog, when set, receives streaming JSONL telemetry: one
	// cell_start/cell_done record per cell plus periodic progress
	// records (simulated-time frontier, events/sec, crude ETA) every
	// ProgressEvery of wall time.
	RunLog *obs.RunLog
	// ProgressEvery throttles per-cell progress records, and — when
	// RunLog is nil but Logf is set — mirrors them to Logf instead.
	// Values <= 0 default to 1s when RunLog is set, else disable
	// progress reporting.
	ProgressEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Seeds < 1 {
		o.Seeds = 1
	}
	if o.Jobs <= 0 {
		o.Jobs = runtime.NumCPU()
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.RunLog != nil && o.ProgressEvery <= 0 {
		o.ProgressEvery = time.Second
	}
	return o
}

// Output is a completed experiment.
type Output struct {
	// ID and Title identify the experiment.
	ID, Title string
	// Names are the strategy names, in run order.
	Names []string
	// Summaries are the per-strategy metric sets of the first seed
	// replicate, aligned with Names. They reproduce the historical
	// single-run results regardless of the replication count.
	Summaries []metrics.Summary
	// Replicates are the per-strategy, per-seed metric sets
	// ([strategy][replicate], aligned with Names).
	Replicates [][]metrics.Summary
	// Tables are the rendered result tables (paper layout; mean ± 95%
	// CI columns when more than one replicate ran).
	Tables []*report.Table
	// Series holds named time series / distributions for the figures
	// (first replicate).
	Series map[string][]stats.Point
	// Notes carries free-form observations (e.g. measured quantiles).
	Notes []string
}

// Experiment is a registered, reproducible paper artifact.
type Experiment struct {
	// ID is the registry key (e.g. "table1", "fig2").
	ID string
	// Title describes the paper artifact.
	Title string
	// Plan declares the experiment's (scenario × policy × seed) matrix
	// without running it. The repository benchmark (perfbench) runs the
	// experiments' matrices from it, without their rendering.
	Plan func(Options) Matrix
	// Render lays out the result of the planned matrix.
	Render func(*MatrixResult) (*Output, error)
}

// Run executes the experiment's plan alone and renders it.
func (e Experiment) Run(opts Options) (*Output, error) {
	mr, err := e.Plan(opts).Run(opts)
	if err != nil {
		return nil, err
	}
	return e.Render(mr)
}

// registry holds all experiments, keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment IDs in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// PolicyFactory names and constructs a rescheduling strategy.
type PolicyFactory struct {
	// Name is the paper's strategy name.
	Name string
	// New builds the policy; seed feeds its randomness.
	New func(seed uint64) core.Policy
}

// Standard policy sets used by the tables.
func susPolicies() []PolicyFactory {
	return []PolicyFactory{
		{Name: "NoRes", New: func(uint64) core.Policy { return core.NewNoRes() }},
		{Name: "ResSusUtil", New: func(uint64) core.Policy { return core.NewResSusUtil() }},
		{Name: "ResSusRand", New: func(s uint64) core.Policy { return core.NewResSusRand(s) }},
	}
}

func waitPolicies() []PolicyFactory {
	return []PolicyFactory{
		{Name: "NoRes", New: func(uint64) core.Policy { return core.NewNoRes() }},
		{Name: "ResSusWaitUtil", New: func(uint64) core.Policy { return core.NewResSusWaitUtil() }},
		{Name: "ResSusWaitRand", New: func(s uint64) core.Policy { return core.NewResSusWaitRand(s) }},
	}
}

// buildPlatform creates the default NetBatch platform at the given
// scale, optionally halved for the high-load scenario.
func buildPlatform(scale, capacityFactor float64) (*cluster.Platform, error) {
	cfg := cluster.DefaultNetBatchConfig()
	cfg.Scale = scale
	plat, err := cluster.NewNetBatchPlatform(cfg)
	if err != nil {
		return nil, err
	}
	if capacityFactor != 1.0 {
		plat, err = plat.ScaleCapacity(capacityFactor)
		if err != nil {
			return nil, err
		}
	}
	return plat, nil
}

// tableExperiment builds a standard tables-1-through-5 experiment on a
// one-scenario matrix. staleness is the utilization-view propagation
// delay in minutes; the utilization-based initial-scheduler experiments
// use a 30-minute-stale view, reflecting the paper's observation that
// exact pool utilization "can be impractical in reality given the
// unavoidable propagation latency between different pools" (§3.2.2).
func tableExperiment(
	id, title string,
	capacityFactor float64,
	staleness float64,
	newInitial func() sched.InitialScheduler,
	policies func() []PolicyFactory,
) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Plan: func(Options) Matrix {
			return Matrix{
				Scenarios: []Scenario{WeekScenario(id, capacityFactor, staleness, newInitial)},
				Policies:  policies(),
			}
		},
		Render: func(mr *MatrixResult) (*Output, error) {
			return tableOutput(id, title, mr)
		},
	}
}

// newOutput assembles the per-strategy skeleton (names, first-replicate
// summaries, all replicates) from scenario 0 of a completed matrix.
// Series starts empty; each experiment fills in what its figure needs.
func newOutput(id, title string, mr *MatrixResult) *Output {
	out := &Output{ID: id, Title: title, Series: map[string][]stats.Point{}}
	for p, name := range mr.PolicyNames {
		reps := mr.Replicates(0, p)
		out.Names = append(out.Names, name)
		out.Summaries = append(out.Summaries, reps[0])
		out.Replicates = append(out.Replicates, reps)
	}
	return out
}

// tableOutput renders the standard per-strategy tables — point values
// for one replicate, mean ± 95% CI across several — plus the
// first-replicate utilization/suspension series.
func tableOutput(id, title string, mr *MatrixResult) (*Output, error) {
	out := newOutput(id, title, mr)
	for p, name := range mr.PolicyNames {
		r0 := mr.At(0, p, 0).Result
		out.Series["util:"+name] = r0.Util.Points()
		out.Series["suspended:"+name] = r0.Suspended.Points()
	}
	tbl, err := report.PaperTableCI(title, out.Names, out.Replicates)
	if err != nil {
		return nil, err
	}
	waste, err := report.WasteTableCI(title+" — wasted-time components", out.Names, out.Replicates)
	if err != nil {
		return nil, err
	}
	out.Tables = append(out.Tables, tbl, waste)
	return out, nil
}
