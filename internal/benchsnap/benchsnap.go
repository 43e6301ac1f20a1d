// Package benchsnap runs the repo's canonical performance cells and
// compares the result against a committed snapshot, so the bench
// trajectory is CI-tracked instead of anecdotal: every PR that moves a
// hot-path number beyond the noise band fails loudly with the cell and
// metric that moved.
//
// The cell set mirrors the headline benchmarks (multi-site busy week,
// faulty week, 6-site metro week and simulated year, the
// checkpoint/restore set including delta capture, and trace synthesis
// of the busy week and the simulated year) at the same 4% bench scale,
// plus the event queue's layer cells (eventq.go). The simulation cells
// keep their "/serial" suffix from when a second engine was recorded
// beside each, so -trend stays continuous. Each cell is timed in
// several rounds and keeps the median one (see rounds). Results
// serialize to a schema-versioned JSON snapshot (BENCH_22.json at the
// repo root is the committed baseline; earlier BENCH_*.json files stay
// committed as the trend history — see cmd/benchsnap).
//
// Comparison rules: allocations and bytes per op are
// hardware-independent and gate on every run; wall-clock gates only
// when the baseline was recorded on a matching machine shape (same
// GOOS/GOARCH/CPU count), because timings from different machine
// shapes do not compare.
package benchsnap

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/experiments"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

// Schema versions the snapshot layout; bump on any breaking change to
// the JSON shape or the cell set semantics.
const Schema = 1

// Snapshot is one recorded bench pass.
type Snapshot struct {
	Schema int    `json:"schema"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// CPUs is runtime.NumCPU at record time. It is part of the machine
	// shape, so time comparison requires a match.
	CPUs  int     `json:"cpus"`
	Scale float64 `json:"scale"`
	Cells []Cell  `json:"cells"`
}

// Cell is one benchmark cell's measurement.
type Cell struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics carries the cell's extra testing.B.ReportMetric values
	// (KB/snapshot, pctOfFull, ...). Informational — not gated.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// rounds is how many testing.Benchmark rounds time each cell. A cell
// records the round with the median ns/op, with that round's allocs,
// bytes and metrics, so one round slowed by a noisy neighbor is not
// the record.
const rounds = 3

// Collect runs every cell through testing.Benchmark, rounds times each,
// and returns the snapshot of median rounds. scale <= 0 defaults to
// the canonical 4% bench scale.
func Collect(scale float64) (Snapshot, error) {
	if scale <= 0 {
		scale = 0.04
	}
	snap := Snapshot{
		Schema: Schema,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Scale:  scale,
	}
	var firstErr error
	record := func(name string, fn func(b *testing.B) error) {
		if firstErr != nil {
			return
		}
		cells := make([]Cell, 0, rounds)
		for range rounds {
			var innerErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				if err := fn(b); err != nil {
					innerErr = err
					b.FailNow()
				}
			})
			if innerErr != nil {
				firstErr = fmt.Errorf("%s: %w", name, innerErr)
				return
			}
			cell := Cell{
				Name:        name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if len(r.Extra) > 0 {
				cell.Metrics = make(map[string]float64, len(r.Extra))
				for k, v := range r.Extra {
					cell.Metrics[k] = v
				}
			}
			cells = append(cells, cell)
		}
		snap.Cells = append(snap.Cells, medianCell(cells))
	}

	multisite, err := prebuiltCell(experiments.MultiSiteScenario("bench-multisite", 3, 0,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} }), scale)
	if err != nil {
		return snap, err
	}
	faults, err := prebuiltCell(experiments.FaultScenario("bench-faults", 3, sim.VictimRequeue), scale)
	if err != nil {
		return snap, err
	}
	pf := experiments.PolicyFactory{
		Name: "ResSusWaitLatency",
		New:  func(uint64) core.Policy { return core.NewResSusWaitLatency() },
	}
	record("multisite_week/serial", func(b *testing.B) error {
		return runCell(b, multisite, pf, scale)
	})
	record("faults_week/serial", func(b *testing.B) error {
		return runCell(b, faults, pf, scale)
	})
	// The 6-site metro federation: cross-site RTTs of 5–25 minutes.
	metro6, err := prebuiltCell(experiments.MultiSiteScenario("bench-metro6", 6, 0,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} }), scale)
	if err != nil {
		return snap, err
	}
	record("metro6_week/serial", func(b *testing.B) error {
		return runCell(b, metro6, pf, scale)
	})
	// The year6 cell is the ROADMAP north-star cell: a simulated year
	// on the 6-site federation (at the reduced multiSiteYearScale so a
	// pass stays in seconds).
	year6, err := prebuiltCell(experiments.MultiSiteYearScenario("bench-year6", 6,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} }), scale)
	if err != nil {
		return snap, err
	}
	record("year6/serial", func(b *testing.B) error {
		return runCell(b, year6, pf, scale)
	})
	collectCheckpointCells(record, multisite, scale)
	collectTraceCells(record, scale)
	record("eventq/schedule_pop", bench(QueueScheduleAndPop))
	record("eventq/cancel", bench(QueueCancel))
	record("eventq/kind_chains", bench(QueueKindChains))
	return snap, firstErr
}

// bench adapts a benchmark body that cannot fail to a recorded cell.
func bench(fn func(*testing.B)) func(*testing.B) error {
	return func(b *testing.B) error {
		fn(b)
		return nil
	}
}

// medianCell returns the round with the median ns/op (the lower median
// for an even count). cells must not be empty.
func medianCell(cells []Cell) Cell {
	sorted := slices.Clone(cells)
	slices.SortStableFunc(sorted, func(x, y Cell) int { return cmp.Compare(x.NsPerOp, y.NsPerOp) })
	return sorted[(len(sorted)-1)/2]
}

// collectTraceCells records trace synthesis alone: the busy-week trace
// behind Tables 1–5 and the 6-site simulated year's, the traces the
// BenchmarkTraceGeneration sub-benchmarks time.
func collectTraceCells(record func(string, func(b *testing.B) error), scale float64) {
	for _, c := range []struct {
		name string
		sc   experiments.Scenario
	}{
		{"trace/week", experiments.WeekScenario("bench-trace-week", 1, 0,
			func() sched.InitialScheduler { return sched.NewRoundRobin() })},
		{"trace/year6", experiments.MultiSiteYearScenario("bench-trace-year6", 6,
			func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })},
	} {
		record(c.name, func(b *testing.B) error {
			var tr *trace.Trace
			for i := 0; i < b.N; i++ {
				var err error
				if tr, err = c.sc.Trace(42, scale); err != nil {
					return err
				}
			}
			b.ReportMetric(float64(len(tr.Jobs)), "jobs")
			return nil
		})
	}
}

// prebuiltCell synthesizes a scenario's trace and platform once so the
// timed loop is simulation only (mirrors the bench_test harness).
func prebuiltCell(sc experiments.Scenario, scale float64) (experiments.Scenario, error) {
	tr, err := sc.Trace(42, scale)
	if err != nil {
		return sc, err
	}
	plat, err := sc.Platform(scale)
	if err != nil {
		return sc, err
	}
	sc.Trace = func(uint64, float64) (*trace.Trace, error) { return tr, nil }
	sc.Platform = func(float64) (*cluster.Platform, error) { return plat, nil }
	return sc, nil
}

func runCell(b *testing.B, sc experiments.Scenario, pf experiments.PolicyFactory, scale float64) error {
	opts := experiments.Options{Seed: 42, Scale: scale, Jobs: 1}
	before := StartRetained(b)
	var cell *experiments.CellResult
	for i := 0; i < b.N; i++ {
		var err error
		if cell, err = experiments.RunCell(sc, pf, opts); err != nil {
			return err
		}
	}
	ReportRetained(b, before, cell.Result)
	return nil
}

// StartRetained returns the live heap after a full collection, taken
// with the timer stopped. Call it before a cell's timed loop and hand
// the value to ReportRetained.
func StartRetained(b *testing.B) uint64 {
	b.StopTimer()
	defer b.StartTimer()
	return liveHeap()
}

// ReportRetained stops the timer and reports retainedB/job: the live
// heap with res still referenced, minus before, divided by res's jobs.
// It is what each cell a MatrixResult holds costs; informational, not
// gated.
func ReportRetained(b *testing.B, before uint64, res *sim.Result) {
	b.StopTimer()
	after := liveHeap()
	runtime.KeepAlive(res)
	b.ReportMetric((float64(after)-float64(before))/float64(len(res.Jobs)), "retainedB/job")
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// collectCheckpointCells records the checkpoint set: a full-cadence
// capture run, the delta-keyframe capture run, and a resume from the
// mid-run snapshot. One simulated day cadence, like the experiments
// default.
func collectCheckpointCells(record func(string, func(b *testing.B) error), sc experiments.Scenario, scale float64) {
	const day = 1440.0
	tr, err := sc.Trace(42, scale)
	if err != nil {
		record("checkpoint/capture", func(*testing.B) error { return err })
		return
	}
	plat, err := sc.Platform(scale)
	if err != nil {
		record("checkpoint/capture", func(*testing.B) error { return err })
		return
	}
	mkCfg := func() sim.Config {
		return sim.Config{
			Platform: plat,
			Initial:  sc.NewInitial(),
			Policy:   core.NewResSusWaitLatency(),
		}
	}

	var mid sim.Checkpoint
	var fullBytesPerSnap float64
	record("checkpoint/capture", func(b *testing.B) error {
		var count, bytes int
		var cks []sim.Checkpoint
		for i := 0; i < b.N; i++ {
			cks = cks[:0]
			cfg := mkCfg()
			cfg.CheckpointEvery = day
			cfg.CheckpointSink = func(c sim.Checkpoint) error {
				cks = append(cks, c)
				return nil
			}
			if _, err := sim.Run(cfg, tr.Jobs); err != nil {
				return err
			}
			count += len(cks)
			for _, c := range cks {
				bytes += len(c.Data)
			}
		}
		if count > 0 {
			mid = cks[len(cks)/2]
			fullBytesPerSnap = float64(bytes) / float64(count)
			b.ReportMetric(fullBytesPerSnap/1024, "KB/snapshot")
		}
		return nil
	})
	record("checkpoint/capture_delta", func(b *testing.B) error {
		var deltaCount, deltaBytes int
		for i := 0; i < b.N; i++ {
			cfg := mkCfg()
			cfg.CheckpointEvery = day
			cfg.CheckpointKeyframe = 8
			cfg.CheckpointSink = func(c sim.Checkpoint) error {
				if c.Delta {
					deltaCount++
					deltaBytes += len(c.Data)
				}
				return nil
			}
			if _, err := sim.Run(cfg, tr.Jobs); err != nil {
				return err
			}
		}
		if deltaCount > 0 {
			perDelta := float64(deltaBytes) / float64(deltaCount)
			b.ReportMetric(perDelta/1024, "KB/delta")
			if fullBytesPerSnap > 0 {
				b.ReportMetric(100*perDelta/fullBytesPerSnap, "pctOfFull")
			}
		}
		return nil
	})
	record("checkpoint/resume", func(b *testing.B) error {
		if len(mid.Data) == 0 {
			return fmt.Errorf("no mid-run snapshot captured")
		}
		for i := 0; i < b.N; i++ {
			cfg := mkCfg()
			cfg.ResumeFrom = mid.Data
			if _, err := sim.Run(cfg, tr.Jobs); err != nil {
				return err
			}
		}
		return nil
	})
}

// Regression is one gated metric that moved past its tolerance.
type Regression struct {
	Cell   string  `json:"cell"`
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	Cand   float64 `json:"candidate"`
	// Ratio is candidate/base; the gate fires when it exceeds
	// 1 + tolerance.
	Ratio float64 `json:"ratio"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%.1f%%)", r.Cell, r.Metric, r.Base, r.Cand, 100*(r.Ratio-1))
}

// Compare gates candidate against base: allocs/op and bytes/op always
// (within allocTol), ns/op only when the machine shapes match (within
// timeTol). Returned notes explain skipped gates and new/missing
// cells; regressions is empty on a pass.
func Compare(base, cand Snapshot, timeTol, allocTol float64) (regressions []Regression, notes []string, err error) {
	if base.Schema != cand.Schema {
		return nil, nil, fmt.Errorf("benchsnap: schema %d vs %d — re-record the baseline", base.Schema, cand.Schema)
	}
	if base.Scale != cand.Scale {
		return nil, nil, fmt.Errorf("benchsnap: bench scale %v vs %v — re-record the baseline", base.Scale, cand.Scale)
	}
	timeGate := base.GOOS == cand.GOOS && base.GOARCH == cand.GOARCH && base.CPUs == cand.CPUs
	if !timeGate {
		notes = append(notes, fmt.Sprintf(
			"time gate skipped: baseline recorded on %s/%s/%d-cpu, candidate on %s/%s/%d-cpu",
			base.GOOS, base.GOARCH, base.CPUs, cand.GOOS, cand.GOARCH, cand.CPUs))
	}
	candBy := make(map[string]Cell, len(cand.Cells))
	for _, c := range cand.Cells {
		candBy[c.Name] = c
	}
	gate := func(cell, metric string, b, c, tol float64) {
		if b <= 0 {
			return
		}
		if ratio := c / b; ratio > 1+tol {
			regressions = append(regressions, Regression{Cell: cell, Metric: metric, Base: b, Cand: c, Ratio: ratio})
		}
	}
	for _, bc := range base.Cells {
		cc, ok := candBy[bc.Name]
		if !ok {
			regressions = append(regressions, Regression{Cell: bc.Name, Metric: "missing", Ratio: 1})
			continue
		}
		delete(candBy, bc.Name)
		gate(bc.Name, "allocs/op", float64(bc.AllocsPerOp), float64(cc.AllocsPerOp), allocTol)
		gate(bc.Name, "bytes/op", float64(bc.BytesPerOp), float64(cc.BytesPerOp), allocTol)
		if timeGate {
			gate(bc.Name, "ns/op", bc.NsPerOp, cc.NsPerOp, timeTol)
		}
	}
	extra := make([]string, 0, len(candBy))
	for name := range candBy {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		notes = append(notes, "new cell not in baseline: "+name)
	}
	sort.Slice(regressions, func(i, j int) bool {
		if regressions[i].Cell != regressions[j].Cell {
			return regressions[i].Cell < regressions[j].Cell
		}
		return regressions[i].Metric < regressions[j].Metric
	})
	return regressions, notes, nil
}
