// Benchmarks of the simulator: the canonical cells, every paper
// artifact, and ablations of the design knobs (wait threshold,
// reschedule overhead, utilization staleness, initial-scheduler
// flavor, restart vs migration).
//
// BenchmarkCells runs internal/benchsnap's cell table, the one
// definition of the cells that cmd/benchsnap records and gates, each
// under its recorded name. BenchmarkExperiments regenerates each
// registered experiment at 4% scale, so a full -bench=. pass stays in
// the minutes range. The experiment and ablation benches report the
// paper's key metrics (avgWCT, avgCT of suspended jobs), so regressions
// in *result shape*, not just speed, are visible. All simulation
// benches go through the shared matrix runner; the ablations
// pre-generate their trace and platform once so they time the engine,
// not trace synthesis.
package netbatch

import (
	"fmt"
	"testing"

	"netbatch/internal/benchsnap"
	"netbatch/internal/core"
	"netbatch/internal/experiments"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
)

// benchScale keeps a full benchmark pass fast while preserving shapes.
const benchScale = 0.04

func benchOpts() experiments.Options {
	// One worker: benches measure single-simulation latency.
	return experiments.Options{Seed: 42, Scale: benchScale, Jobs: 1}
}

// BenchmarkCells runs each canonical cell under the name cmd/benchsnap
// records it by.
func BenchmarkCells(b *testing.B) {
	for _, row := range benchsnap.Table(benchScale) {
		b.Run(row.Name, func(b *testing.B) {
			b.ReportAllocs()
			if err := row.Run(b); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkExperiments runs each registered experiment, plan and
// render, and reports the last strategy's headline metrics.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			e, err := experiments.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			var out *experiments.Output
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out, err = e.Run(benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
			last := out.Summaries[len(out.Summaries)-1]
			b.ReportMetric(last.AvgWCT, "avgWCT")
			b.ReportMetric(last.AvgCTSuspended, "avgCTsusp")
		})
	}
}

// prebuiltWeek returns the Tables 1–5 scenario at bench scale with its
// trace and platform synthesized once up front, so per-iteration cost
// is simulation only. Sampling is disabled unless a stale utilization
// view needs it (snapshots refresh on the sampling grid).
func prebuiltWeek(b *testing.B, capacity, staleness float64, newInitial func() sched.InitialScheduler) experiments.Scenario {
	b.Helper()
	sc, err := benchsnap.Prebuild(experiments.WeekScenario("bench", capacity, staleness, newInitial), benchScale)
	if err != nil {
		b.Fatal(err)
	}
	if staleness == 0 {
		sc.Tune = func(cfg *sim.Config) { cfg.DisableSampling = true }
	}
	return sc
}

// runCellBench executes one (scenario, policy) cell b.N times through
// the shared runner and reports the waste metrics.
func runCellBench(b *testing.B, sc experiments.Scenario, pf experiments.PolicyFactory, opts experiments.Options) {
	b.Helper()
	b.ReportAllocs()
	if err := benchsnap.RunCell(b, sc, pf, opts); err != nil {
		b.Fatal(err)
	}
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
