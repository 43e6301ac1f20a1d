// Benchmarks regenerating every table and figure in the paper's
// evaluation (one benchmark per artifact), plus ablation benches for
// the design knobs (wait threshold, reschedule overhead, utilization
// staleness, initial-scheduler flavor, restart vs migration) and
// micro-benchmarks of the simulator's hot path.
//
// Experiment benches run at 4% scale so a full -bench=. pass stays in
// the minutes range; they report the paper's key metrics via
// b.ReportMetric (avgWCT, avgCT of suspended jobs) so regressions in
// *result shape*, not just speed, are visible. All simulation benches
// go through the shared matrix runner (a one-cell experiments.Matrix)
// rather than hand-assembling sim.Config; the ablation benches
// pre-generate their trace and platform once so they time the engine,
// not trace synthesis.
package netbatch

import (
	"fmt"
	"testing"
	"time"

	"netbatch/internal/benchsnap"
	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/experiments"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

// benchScale keeps a full benchmark pass fast while preserving shapes.
const benchScale = 0.04

func benchOpts() experiments.Options {
	// One worker: benches measure single-simulation latency.
	return experiments.Options{Seed: 42, Scale: benchScale, Jobs: 1}
}

// runExperimentBench runs one registered experiment b.N times and
// reports its headline metrics.
func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var out *experiments.Output
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err = e.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(out.Summaries) > 0 {
		last := out.Summaries[len(out.Summaries)-1]
		b.ReportMetric(last.AvgWCT, "avgWCT")
		b.ReportMetric(last.AvgCTSuspended, "avgCTsusp")
	}
}

func BenchmarkTable1NormalLoad(b *testing.B)      { runExperimentBench(b, "table1") }
func BenchmarkTable2HighLoad(b *testing.B)        { runExperimentBench(b, "table2") }
func BenchmarkTable3UtilInitial(b *testing.B)     { runExperimentBench(b, "table3") }
func BenchmarkTable4WaitResched(b *testing.B)     { runExperimentBench(b, "table4") }
func BenchmarkTable5WaitReschedUtil(b *testing.B) { runExperimentBench(b, "table5") }

func BenchmarkFig2SuspensionCDF(b *testing.B)   { runExperimentBench(b, "fig2") }
func BenchmarkFig3WasteComponents(b *testing.B) { runExperimentBench(b, "fig3") }
func BenchmarkFig4YearTimeline(b *testing.B)    { runExperimentBench(b, "fig4") }

func BenchmarkHighSuspensionScenario(b *testing.B) { runExperimentBench(b, "highsusp") }

// prebuiltWeek returns the Tables 1–5 scenario at bench scale with its
// trace and platform synthesized once up front, so per-iteration cost
// is simulation only. Sampling is disabled unless a stale utilization
// view needs it (snapshots refresh on the sampling grid).
func prebuiltWeek(b *testing.B, capacity, staleness float64, newInitial func() sched.InitialScheduler) experiments.Scenario {
	b.Helper()
	sc := experiments.WeekScenario("bench", capacity, staleness, newInitial)
	tr, err := sc.Trace(42, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := sc.Platform(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	sc.Trace = func(uint64, float64) (*trace.Trace, error) { return tr, nil }
	sc.Platform = func(float64) (*cluster.Platform, error) { return plat, nil }
	if staleness == 0 {
		sc.Tune = func(cfg *sim.Config) { cfg.DisableSampling = true }
	}
	return sc
}

// runCellBench executes one (scenario, policy) cell b.N times through
// the shared runner and reports the waste metrics.
func runCellBench(b *testing.B, sc experiments.Scenario, pf experiments.PolicyFactory, opts experiments.Options) {
	b.Helper()
	m := experiments.Matrix{Scenarios: []experiments.Scenario{sc}, Policies: []experiments.PolicyFactory{pf}}
	var mr *experiments.MatrixResult
	b.ReportAllocs()
	before := benchsnap.StartRetained(b)
	for i := 0; i < b.N; i++ {
		var err error
		mr, err = m.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	cell := mr.At(0, 0, 0)
	benchsnap.ReportRetained(b, before, cell.Result)
	b.ReportMetric(cell.Summary.AvgWCT, "avgWCT")
	b.ReportMetric(cell.Summary.AvgCTSuspended, "avgCTsusp")
}

func rrInitial() sched.InitialScheduler { return sched.NewRoundRobin() }

// BenchmarkAblationWaitThreshold sweeps the §3.3 waiting-time threshold
// around the paper's 30-minute choice.
func BenchmarkAblationWaitThreshold(b *testing.B) {
	sc := prebuiltWeek(b, 0.5, 0, rrInitial)
	for _, th := range []float64{10, 30, 90, 240} {
		b.Run(fmt.Sprintf("threshold=%v", th), func(b *testing.B) {
			pf := experiments.PolicyFactory{
				Name: "ResSusWaitUtil",
				New:  func(uint64) core.Policy { return core.ResSusWaitUtil{Threshold: th} },
			}
			runCellBench(b, sc, pf, benchOpts())
		})
	}
}

// BenchmarkAblationOverhead sweeps the reschedule transfer overhead the
// paper's §5 future work proposes to model ("network delays and other
// rescheduling associated overheads").
func BenchmarkAblationOverhead(b *testing.B) {
	sc := prebuiltWeek(b, 1.0, 0, rrInitial)
	pf := experiments.PolicyFactory{
		Name: "ResSusUtil",
		New:  func(uint64) core.Policy { return core.NewResSusUtil() },
	}
	for _, ov := range []float64{0, 5, 20, 60} {
		b.Run(fmt.Sprintf("overhead=%v", ov), func(b *testing.B) {
			opts := benchOpts()
			opts.Overhead = ov
			runCellBench(b, sc, pf, opts)
		})
	}
}

// BenchmarkAblationStaleness quantifies §3.2.2's practicality caveat:
// how much utilization-based initial scheduling degrades as its view of
// pool state lags.
func BenchmarkAblationStaleness(b *testing.B) {
	pf := experiments.PolicyFactory{
		Name: "ResSusUtil",
		New:  func(uint64) core.Policy { return core.NewResSusUtil() },
	}
	for _, st := range []float64{1, 30, 120, 480} {
		sc := prebuiltWeek(b, 0.5, st, func() sched.InitialScheduler { return sched.NewUtilizationBased() })
		b.Run(fmt.Sprintf("staleness=%v", st), func(b *testing.B) {
			runCellBench(b, sc, pf, benchOpts())
		})
	}
}

// BenchmarkAblationInitial compares initial-scheduler flavors under the
// NoRes baseline (the §3.2.1 round-robin vs utilization comparison plus
// our extensions).
func BenchmarkAblationInitial(b *testing.B) {
	initials := map[string]func() sched.InitialScheduler{
		"rr":       rrInitial,
		"rr-pure":  func() sched.InitialScheduler { return sched.NewPureRoundRobin() },
		"rr-avail": func() sched.InitialScheduler { return &sched.RoundRobin{AvoidQueues: true} },
		"random":   func() sched.InitialScheduler { return sched.NewRandomInitial(42) },
	}
	pf := experiments.PolicyFactory{
		Name: "NoRes",
		New:  func(uint64) core.Policy { return core.NewNoRes() },
	}
	for _, name := range []string{"rr", "rr-pure", "rr-avail", "random"} {
		sc := prebuiltWeek(b, 1.0, 0, initials[name])
		b.Run(name, func(b *testing.B) {
			runCellBench(b, sc, pf, benchOpts())
		})
	}
}

// BenchmarkAblationMigration compares restart-based rescheduling with
// the Condor-style checkpoint migration the paper weighs against it
// (§2.3/§4) at several migration costs.
func BenchmarkAblationMigration(b *testing.B) {
	sc := prebuiltWeek(b, 0.5, 0, rrInitial)
	cases := []struct {
		name string
		mk   func(uint64) core.Policy
	}{
		{"restart", func(uint64) core.Policy { return core.NewResSusUtil() }},
		{"migrate-5min", func(uint64) core.Policy { return core.NewResSusMigrate(5) }},
		{"migrate-30min", func(uint64) core.Policy { return core.NewResSusMigrate(30) }},
		{"migrate-120min", func(uint64) core.Policy { return core.NewResSusMigrate(120) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			runCellBench(b, sc, experiments.PolicyFactory{Name: c.name, New: c.mk}, benchOpts())
		})
	}
}

// BenchmarkMultiSiteWeek runs one 3-site federation cell (latency-
// penalized site selection over per-site round-robin, latency-aware
// combined rescheduling) at bench scale. Sampling stays enabled: the
// inter-site view ageing refreshes on the sample grid, so this bench
// also covers the per-site sampling and snapshot-chain overhead.
func BenchmarkMultiSiteWeek(b *testing.B) {
	sc := experiments.MultiSiteScenario("bench-multisite", 3, 0,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })
	tr, err := sc.Trace(42, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := sc.Platform(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	sc.Trace = func(uint64, float64) (*trace.Trace, error) { return tr, nil }
	sc.Platform = func(float64) (*cluster.Platform, error) { return plat, nil }
	pf := experiments.PolicyFactory{
		Name: "ResSusWaitLatency",
		New:  func(uint64) core.Policy { return core.NewResSusWaitLatency() },
	}
	b.ResetTimer()
	runCellBench(b, sc, pf, benchOpts())
}

// BenchmarkFaultsMultiSiteWeek runs one 3-site federation cell of the
// faulty busy week — machine crashes, staggered maintenance windows,
// kill-and-requeue victims — mirroring BenchmarkMultiSiteWeek. It
// times the fault & maintenance subsystem's overhead on the hot path
// (kill sweeps, downtime spans, requeue cascades).
func BenchmarkFaultsMultiSiteWeek(b *testing.B) {
	sc := experiments.FaultScenario("bench-faults", 3, sim.VictimRequeue)
	tr, err := sc.Trace(42, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := sc.Platform(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	sc.Trace = func(uint64, float64) (*trace.Trace, error) { return tr, nil }
	sc.Platform = func(float64) (*cluster.Platform, error) { return plat, nil }
	pf := experiments.PolicyFactory{
		Name: "ResSusWaitLatency",
		New:  func(uint64) core.Policy { return core.NewResSusWaitLatency() },
	}
	b.ResetTimer()
	runCellBench(b, sc, pf, benchOpts())
}

// BenchmarkYear6 runs one simulated year on the 6-site federation
// (recurring auto bursts, metro RTT matrix, reduced scale — see
// experiments.MultiSiteYearScenario). This is the ROADMAP north-star
// cell. Sampling is disabled by the scenario so the cell times the
// simulation, not a year of per-minute series.
func BenchmarkYear6(b *testing.B) {
	sc := experiments.MultiSiteYearScenario("bench-year6", 6,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })
	tr, err := sc.Trace(42, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := sc.Platform(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	sc.Trace = func(uint64, float64) (*trace.Trace, error) { return tr, nil }
	sc.Platform = func(float64) (*cluster.Platform, error) { return plat, nil }
	pf := experiments.PolicyFactory{
		Name: "ResSusWaitLatency",
		New:  func(uint64) core.Policy { return core.NewResSusWaitLatency() },
	}
	b.ResetTimer()
	runCellBench(b, sc, pf, benchOpts())
	b.ReportMetric(float64(len(tr.Jobs)), "jobs")
}

// BenchmarkSimulatorThroughput measures raw event throughput of the
// engine on the busy-week workload. Unlike the other benches it calls
// sim.Run directly (no metrics.Summarize, no conservation checks): its
// job is to time the engine alone, and the matrix runner would fold
// per-job summarization into every iteration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sc := prebuiltWeek(b, 1.0, 0, rrInitial)
	tr, err := sc.Trace(42, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := sc.Platform(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Platform:        plat,
			Initial:         sched.NewRoundRobin(),
			Policy:          core.NewResSusWaitUtil(),
			DisableSampling: true,
		}, tr.Jobs)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	b.ReportMetric(float64(len(tr.Jobs)), "jobs")
}

// BenchmarkTraceGeneration measures synthetic trace synthesis: week is
// the busy-week trace behind Tables 1–5, year6 the 6-site simulated
// year's (experiments.MultiSiteYearScenario), both at bench scale.
// benchsnap records the same traces as the trace/week and trace/year6
// cells.
func BenchmarkTraceGeneration(b *testing.B) {
	for _, c := range []struct {
		name string
		sc   experiments.Scenario
	}{
		{"week", experiments.WeekScenario("bench-trace-week", 1, 0, rrInitial)},
		{"year6", experiments.MultiSiteYearScenario("bench-trace-year6", 6,
			func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var tr *trace.Trace
			for i := 0; i < b.N; i++ {
				var err error
				if tr, err = c.sc.Trace(42, benchScale); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tr.Jobs)), "jobs")
		})
	}
}

// BenchmarkCheckpoint pins the cost of the checkpoint/restore subsystem
// on the multi-site busy week so snapshot cost shows up in the perf
// trajectory alongside the engine benches. Three series:
//
//   - baseline: the plain serial run (no checkpointing), the
//     denominator for the overhead target;
//   - capture: the same run emitting a full-state snapshot every
//     simulated day (the -checkpoint-every default). The satellite
//     target is per-checkpoint overhead under ~5% of run time —
//     reported as pctPerCkpt;
//   - capture_delta: the same cadence with CheckpointKeyframe=8, so
//     seven of every eight snapshots are binary deltas. Reports the
//     delta-file size as a percentage of the run's full-snapshot size
//     (pctOfFull — the perf program targets ≤25%);
//   - resume: restoring the run's mid-point snapshot and simulating to
//     completion (decode + state rebuild + the remaining half).
func BenchmarkCheckpoint(b *testing.B) {
	sc := experiments.MultiSiteScenario("bench-checkpoint", 3, 0,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })
	tr, err := sc.Trace(42, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := sc.Platform(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	mkCfg := func() sim.Config {
		return sim.Config{
			Platform: plat,
			Initial:  sc.NewInitial(),
			Policy:   core.NewResSusWaitLatency(),
		}
	}
	const day = 1440.0

	var baseline float64 // ns/op of the plain run, for the overhead metric
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(mkCfg(), tr.Jobs); err != nil {
				b.Fatal(err)
			}
		}
		baseline = float64(time.Since(start).Nanoseconds()) / float64(b.N)
	})

	var mid sim.Checkpoint
	var fullBytesPerSnap float64
	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		var count, bytes int
		var cks []sim.Checkpoint
		start := time.Now()
		for i := 0; i < b.N; i++ {
			cks = cks[:0]
			cfg := mkCfg()
			cfg.CheckpointEvery = day
			cfg.CheckpointSink = func(c sim.Checkpoint) error {
				cks = append(cks, c)
				return nil
			}
			if _, err := sim.Run(cfg, tr.Jobs); err != nil {
				b.Fatal(err)
			}
			count += len(cks)
			for _, c := range cks {
				bytes += len(c.Data)
			}
		}
		elapsed := float64(time.Since(start).Nanoseconds()) / float64(b.N)
		perRun := count / b.N
		mid = cks[len(cks)/2]
		fullBytesPerSnap = float64(bytes) / float64(count)
		b.ReportMetric(float64(perRun), "snapshots/run")
		b.ReportMetric(fullBytesPerSnap/1024, "KB/snapshot")
		if baseline > 0 && perRun > 0 {
			perCkpt := (elapsed - baseline) / float64(perRun)
			b.ReportMetric(100*perCkpt/baseline, "pctPerCkpt")
		}
	})

	b.Run("capture_delta", func(b *testing.B) {
		b.ReportAllocs()
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
				b.Fatal(err)
			}
		}
		if deltaCount > 0 {
			perDelta := float64(deltaBytes) / float64(deltaCount)
			b.ReportMetric(perDelta/1024, "KB/delta")
			if fullBytesPerSnap > 0 {
				b.ReportMetric(100*perDelta/fullBytesPerSnap, "pctOfFull")
			}
		}
	})

	b.Run("resume", func(b *testing.B) {
		if len(mid.Data) == 0 {
			b.Skip("no mid-run snapshot captured")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := mkCfg()
			cfg.ResumeFrom = mid.Data
			if _, err := sim.Run(cfg, tr.Jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
