package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/obs"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

// telemetryMatrix is two multisite scenarios (one site, and three)
// under the three multisite policies: six cells of a few thousand to
// a few ten thousand events each at scale 0.02.
func telemetryMatrix(t *testing.T, opts Options) Matrix {
	t.Helper()
	e, err := Get("multisite")
	if err != nil {
		t.Fatal(err)
	}
	m := e.Plan(opts)
	m.Scenarios = m.Scenarios[:2]
	return m
}

// records collects the run log's records; a RunLog calls Write under
// its lock, one record per call.
type records []obs.RunRecord

func (rs *records) Write(p []byte) (int, error) {
	var rec obs.RunRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return 0, err
	}
	*rs = append(*rs, rec)
	return len(p), nil
}

// dirBytes returns the number of files in dir and their total size.
func dirBytes(t *testing.T, dir string) (files int, size int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
	}
	return len(entries), size
}

// TestObservabilitySharedRegistry runs a matrix on four workers against
// one shared registry and one run log — the cmd/experiments wiring —
// writing checkpoints, with a progress record due at every stride.
// Under -race it proves the sinks safe to share; the reconciliation
// proves nothing is lost or counted twice: every registry metric equals
// what the cells' Results and checkpoint files report, and every cell's
// records bracket it.
func TestObservabilitySharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	var log records
	dir := t.TempDir()
	opts := Options{
		Seed: 42, Scale: 0.02, Jobs: 4,
		CheckpointDir: dir, CheckpointKeyframe: 4,
		Metrics: reg, RunLog: obs.NewRunLog(&log), ProgressEvery: time.Nanosecond,
	}
	mr, err := telemetryMatrix(t, opts).Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	var depth, tombs int
	cellEvents := map[string]int64{}
	for s, id := range mr.ScenarioIDs {
		for p, name := range mr.PolicyNames {
			res := mr.At(s, p, 0).Result
			events += res.Events
			depth = max(depth, res.QueueDepthMax)
			tombs = max(tombs, res.QueueTombstonesMax)
			cellEvents[cellLabel(id, name, 0)] = res.Events
		}
	}
	files, size := dirBytes(t, dir)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"sim.events", reg.Counter("sim.events").Value(), events},
		{"sim.alias_retirements", reg.Counter("sim.alias_retirements").Value(), 0},
		{"sim.queue.depth_max", reg.Gauge("sim.queue.depth_max").Value(), int64(depth)},
		{"sim.queue.tombstones_max", reg.Gauge("sim.queue.tombstones_max").Value(), int64(tombs)},
		{"sim.checkpoint.captures", reg.Counter("sim.checkpoint.captures").Value(), int64(files)},
		{"sim.checkpoint.bytes", reg.Counter("sim.checkpoint.bytes").Value(), size},
	} {
		if c.got != c.want {
			t.Errorf("registry %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if depth == 0 || files == 0 {
		t.Fatalf("queue depth high-water %d and %d checkpoint files; want both sampled", depth, files)
	}
	count := map[string]int{}
	var ckBytes int64
	for _, rec := range log {
		count[rec.Type]++
		switch rec.Type {
		case "cell_done":
			if want, ok := cellEvents[rec.Cell]; !ok || rec.Events != want || rec.Err != "" {
				t.Errorf("cell_done %+v, want %d events for a cell of the matrix", rec, want)
			}
		case "checkpoint":
			ckBytes += rec.Bytes
			if rec.Bytes <= 0 || rec.CaptureMS < 0 || rec.WriteMS < 0 {
				t.Errorf("checkpoint record %+v", rec)
			}
		}
	}
	cells := len(cellEvents)
	if count["cell_start"] != cells || count["cell_done"] != cells || count["checkpoint"] != files || count["progress"] == 0 {
		t.Errorf("run log holds %v; want %d cell_start and cell_done, %d checkpoint and some progress records", count, cells, files)
	}
	if ckBytes != size {
		t.Errorf("checkpoint records report %d bytes, the directory holds %d", ckBytes, size)
	}
}

// TestObservabilityDoesNotPerturbResults pins the instrument-nothing
// contract: a matrix run with every sink on (registry, run log,
// progress at every stride, and checkpoint records) is bit-identical to
// a bare run of the same matrix.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	bareOpts := Options{Seed: 42, Scale: 0.02, Jobs: 2}
	bare, err := telemetryMatrix(t, bareOpts).Run(bareOpts)
	if err != nil {
		t.Fatalf("bare: %v", err)
	}
	instOpts := bareOpts
	instOpts.Metrics = obs.NewRegistry()
	instOpts.RunLog = obs.NewRunLog(io.Discard)
	instOpts.ProgressEvery = time.Nanosecond
	instOpts.CheckpointDir = t.TempDir()
	inst, err := telemetryMatrix(t, instOpts).Run(instOpts)
	if err != nil {
		t.Fatalf("instrumented: %v", err)
	}
	if !bytes.Equal(fingerprint(t, bare), fingerprint(t, inst)) {
		t.Error("instrumented matrix run differs from the bare run")
	}
}

// waitMover reschedules any job stalled in pool from's queue to pool
// to, and leaves every other job in place.
type waitMover struct {
	from, to int
	th       float64
}

func (waitMover) Name() string                                          { return "wait-mover" }
func (waitMover) OnSuspend(*job.Job, []int, sched.PoolView) (int, bool) { return 0, false }
func (m waitMover) WaitThreshold() float64                              { return m.th }
func (m waitMover) OnWaitTimeout(j *job.Job, _ []int, _ sched.PoolView) (int, bool) {
	return m.to, j.Pool == m.from
}

// TestAliasRetirementsReachRegistry runs the simulator's forced
// cross-site alias (sim's TestForcedCrossSiteAliasRetires) as a matrix
// cell: job 3 waits at site A's pool, is moved to site B's, and is
// revived onto site A's machine, so its completion retires one alias.
// The runner records that Result counter as sim.alias_retirements.
func TestAliasRetirementsReachRegistry(t *testing.T) {
	spec := func(id job.ID, submit, work float64, site int, cands ...int) job.Spec {
		return job.Spec{
			ID: id, Submit: submit, Work: work, Cores: 1, MemMB: 1024,
			Priority: job.PriorityLow, Candidates: cands, Site: site,
		}
	}
	specs := []job.Spec{spec(1, 0, 20.3, 0, 0), spec(2, 0.4, 31.7, 1, 1), spec(3, 0.7, 5.9, 0, 0, 1)}
	m := Matrix{
		Scenarios: []Scenario{{
			ID:    "alias",
			Trace: func(uint64, float64) (*trace.Trace, error) { return &trace.Trace{Jobs: specs}, nil },
			Platform: func(float64) (*cluster.Platform, error) {
				plat, err := cluster.Build([]cluster.PoolConfig{
					{Site: "A", Classes: []cluster.MachineClass{{Count: 1, Cores: 1, MemMB: 8192, Speed: 1.0}}},
					{Site: "B", Classes: []cluster.MachineClass{{Count: 1, Cores: 1, MemMB: 8192, Speed: 1.0}}},
				})
				if err != nil {
					return nil, err
				}
				return plat.WithRTT([][]float64{{0, 5}, {5, 0}})
			},
			NewInitial: func() sched.InitialScheduler { return sched.NewRoundRobin() },
		}},
		Policies: []PolicyFactory{{Name: "wait-mover", New: func(uint64) core.Policy { return waitMover{from: 0, to: 1, th: 2.3} }}},
	}
	reg := obs.NewRegistry()
	mr, err := m.Run(Options{Seed: 42, Jobs: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := mr.At(0, 0, 0).Result.AliasRetirements; got != 1 {
		t.Fatalf("AliasRetirements = %d, want 1", got)
	}
	if got := reg.Counter("sim.alias_retirements").Value(); got != 1 {
		t.Errorf("sim.alias_retirements = %d, want 1", got)
	}
}

// TestTelemetryDisabledAllocatesNothing: with neither Metrics nor
// RunLog set, a cell's telemetry is nil, arms no Progress hook, and
// formats and allocates nothing.
func TestTelemetryDisabledAllocatesNothing(t *testing.T) {
	specs := []job.Spec{{ID: 1, Work: 1}}
	var cfg sim.Config
	opts := Options{Logf: t.Logf, ProgressEvery: time.Second}
	allocs := testing.AllocsPerRun(100, func() {
		tel := newCellTelemetry(&cfg, specs, "s", "p", 0, opts)
		tel.checkpoint(sim.Checkpoint{Data: []byte{1}}, time.Millisecond)
		tel.done(&sim.Result{Events: 1}, nil)
	})
	if allocs != 0 || cfg.Progress != nil {
		t.Errorf("disabled telemetry: %v allocations per cell, Progress armed: %v", allocs, cfg.Progress != nil)
	}
}
