// Burst analysis: run a long trace with recurring high-priority bursts
// and reproduce the paper's §2 trace characterization — the suspension
// time CDF (Figure 2) and the utilization / suspended-jobs timeline
// (Figure 4) — at laptop scale.
//
// Run with:
//
//	go run ./examples/burst-analysis
package main

import (
	"fmt"
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
		fmt.Fprintln(os.Stderr, "burst-analysis:", err)
		os.Exit(1)
	}
}

func run() error {
	// A sixth of a year at 2% platform scale keeps this example fast
	// while exercising several burst cycles.
	const scale = 0.02
	cfg := trace.YearLong(11, scale)
	cfg.Horizon = 90000
	tr, err := trace.Generate(cfg)
	if err != nil {
		return err
	}
	platCfg := cluster.DefaultNetBatchConfig()
	platCfg.Scale = scale
	plat, err := cluster.NewNetBatchPlatform(platCfg)
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{
		Platform: plat,
		Initial:  sched.NewRoundRobin(),
		Policy:   core.NewNoRes(),
	}, tr.Jobs)
	if err != nil {
		return err
	}
	sum, err := metrics.Summarize(res.Jobs)
	if err != nil {
		return err
	}

	fmt.Printf("%d jobs over %.0f minutes on %d cores; suspend rate %.2f%%\n\n",
		sum.Jobs, res.Makespan, plat.TotalCores(), sum.SuspendRate)

	cdf := metrics.SuspensionCDF(res.Jobs)
	tbl := report.CDFTable("suspension time CDF (Figure 2 shape)", cdf)
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}

	fmt.Println("\ntimeline (Figure 4 shape; 100-minute bins):")
	fmt.Printf("utilization %%: %s (mean %.1f%%)\n",
		report.Sparkline(res.Util.Points(), 72), res.Util.MeanOfBins())
	fmt.Printf("suspended:     %s\n", report.Sparkline(res.Suspended.Points(), 72))
	peakT, peakV := res.Suspended.MaxBin()
	fmt.Printf("largest suspension spike: %.0f jobs around minute %.0f\n", peakV, peakT)
	return nil
}
