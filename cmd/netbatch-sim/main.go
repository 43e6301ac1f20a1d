// Command netbatch-sim runs one NetBatch simulation: a trace (from a
// file or a generated preset) against the default 20-pool platform with
// a chosen initial scheduler and rescheduling strategy.
//
// Usage:
//
//	netbatch-sim [-trace FILE.jsonl | -preset week] [-policy ResSusUtil]
//	             [-initial rr] [-scale 1.0] [-capacity 1.0] [-seed 42]
//
// It prints the paper's metrics (§3.1) plus task-level and run
// statistics.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/metrics"
	"netbatch/internal/report"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netbatch-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		traceFile = flag.String("trace", "", "JSONL trace file (overrides -preset)")
		preset    = flag.String("preset", "week", "generated workload: week, highsusp, or year")
		policy    = flag.String("policy", "NoRes", "rescheduling strategy: NoRes, ResSusUtil, ResSusRand, ResSusWaitUtil, ResSusWaitRand, ResSusMigrate")
		initial   = flag.String("initial", "rr", "initial scheduler: rr, rr-pure, rr-avail, util, random")
		scale     = flag.Float64("scale", 1.0, "platform+workload scale")
		capacity  = flag.Float64("capacity", 1.0, "capacity factor (0.5 = paper's high-load scenario)")
		seed      = flag.Uint64("seed", 42, "random seed")
		overhead  = flag.Float64("overhead", 0, "reschedule transfer overhead, minutes")
		staleness = flag.Float64("staleness", 0, "utilization view staleness, minutes")
		migCost   = flag.Float64("migration-cost", 10, "per-move overhead for ResSusMigrate, minutes")
	)
	flag.Parse()
	if err := checkScale(*scale); err != nil {
		return err
	}

	tr, err := loadTrace(*traceFile, *preset, *seed, *scale)
	if err != nil {
		return err
	}
	platCfg := cluster.DefaultNetBatchConfig()
	platCfg.Scale = *scale
	plat, err := cluster.NewNetBatchPlatform(platCfg)
	if err != nil {
		return err
	}
	if *capacity != 1.0 {
		if plat, err = plat.ScaleCapacity(*capacity); err != nil {
			return err
		}
	}
	init, err := makeInitial(*initial, *seed)
	if err != nil {
		return err
	}
	pol, err := makePolicy(*policy, *seed, *migCost)
	if err != nil {
		return err
	}

	res, err := sim.Run(sim.Config{
		Platform:           plat,
		Initial:            init,
		Policy:             pol,
		RescheduleOverhead: *overhead,
		UtilStaleness:      *staleness,
	}, tr.Jobs)
	if err != nil {
		return err
	}
	sum, err := metrics.Summarize(res.Jobs)
	if err != nil {
		return err
	}

	tbl, err := report.PaperTable(
		fmt.Sprintf("%s on %s initial scheduling (%d jobs, %d cores)",
			pol.Name(), init.Name(), sum.Jobs, plat.TotalCores()),
		[]string{pol.Name()}, []metrics.Summary{sum})
	if err != nil {
		return err
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nwaste components: wait %.1f + suspend %.1f + resched %.1f = %.1f min/job\n",
		sum.WaitComp, sum.SuspendComp, sum.ReschedComp, sum.AvgWCT)
	fmt.Printf("median CT %.1f, p90 CT %.1f, makespan %.0f min\n", sum.MedianCT, sum.P90CT, res.Makespan)
	fmt.Printf("events %d, preemptions %d, restarts %d, migrations %d, wait moves %d\n",
		res.Events, res.Preemptions, res.Restarts, res.Migrations, res.WaitMoves)
	if ts := metrics.SummarizeTasks(res.Jobs); ts.Tasks > 0 {
		fmt.Printf("tasks: %d multi-job tasks, avg span %.0f min, avg straggler delay %.0f min, %.1f%% touched by suspension\n",
			ts.Tasks, ts.AvgSpan, ts.AvgStraggler, ts.TouchedBySuspension)
	}
	fmt.Printf("utilization: %s\n", report.Sparkline(res.Util.Points(), 72))
	fmt.Printf("suspended:   %s\n", report.Sparkline(res.Suspended.Points(), 72))
	return nil
}

func loadTrace(file, preset string, seed uint64, scale float64) (*trace.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadJSONL(f)
	}
	cfg, err := trace.Preset(preset, seed, scale)
	if err != nil {
		return nil, err
	}
	return trace.Generate(cfg)
}

// checkScale rejects a -scale that is not finite and positive before
// any trace is generated or platform built.
func checkScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale must be finite and positive, got %v", scale)
	}
	return nil
}

func makeInitial(name string, seed uint64) (sched.InitialScheduler, error) {
	switch name {
	case "rr":
		return sched.NewRoundRobin(), nil
	case "rr-pure":
		return sched.NewPureRoundRobin(), nil
	case "rr-avail":
		return &sched.RoundRobin{AvoidQueues: true}, nil
	case "util":
		return sched.NewUtilizationBased(), nil
	case "random":
		return sched.NewRandomInitial(seed), nil
	default:
		return nil, fmt.Errorf("unknown initial scheduler %q", name)
	}
}

func makePolicy(name string, seed uint64, migCost float64) (core.Policy, error) {
	switch name {
	case "NoRes":
		return core.NewNoRes(), nil
	case "ResSusUtil":
		return core.NewResSusUtil(), nil
	case "ResSusRand":
		return core.NewResSusRand(seed), nil
	case "ResSusWaitUtil":
		return core.NewResSusWaitUtil(), nil
	case "ResSusWaitRand":
		return core.NewResSusWaitRand(seed), nil
	case "ResSusMigrate":
		return core.NewResSusMigrate(migCost), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
