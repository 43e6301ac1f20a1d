// Capacity planning: sweep the platform's capacity factor (the paper's
// high-load scenario generalized) and observe how completion time and
// the value of dynamic rescheduling change with load. This reproduces
// the paper's normal-load vs high-load comparison (Tables 1 and 2) as a
// curve: the benefit of rescheduling grows as capacity shrinks.
//
// Run with:
//
//	go run ./examples/capacity-planning
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
		fmt.Fprintln(os.Stderr, "capacity-planning:", err)
		os.Exit(1)
	}
}

func run() error {
	const scale = 0.05
	base, err := cluster.NewNetBatchPlatform(func() cluster.NetBatchConfig {
		c := cluster.DefaultNetBatchConfig()
		c.Scale = scale
		return c
	}())
	if err != nil {
		return err
	}
	tr, err := trace.Generate(trace.ScaleRates(trace.WeekNormal(3), scale))
	if err != nil {
		return err
	}

	tbl := &report.Table{
		Title: "capacity sweep: same trace, shrinking platform",
		Columns: []string{
			"Capacity", "Cores", "NoRes AvgCT(all)", "NoRes AvgCT(susp)",
			"ResSusUtil AvgCT(susp)", "Reduction",
		},
	}
	for _, factor := range []float64{1.0, 0.8, 0.6, 0.5, 0.4} {
		plat, err := base.ScaleCapacity(factor)
		if err != nil {
			return err
		}
		var sums [2]metrics.Summary
		for i, pol := range []core.Policy{core.NewNoRes(), core.NewResSusUtil()} {
			res, err := sim.Run(sim.Config{
				Platform:        plat,
				Initial:         sched.NewRoundRobin(),
				Policy:          pol,
				DisableSampling: true,
			}, tr.Jobs)
			if err != nil {
				return fmt.Errorf("capacity %.1f: %w", factor, err)
			}
			if sums[i], err = metrics.Summarize(res.Jobs); err != nil {
				return err
			}
		}
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", factor*100),
			fmt.Sprintf("%d", plat.TotalCores()),
			fmt.Sprintf("%.0f", sums[0].AvgCTAll),
			fmt.Sprintf("%.0f", sums[0].AvgCTSuspended),
			fmt.Sprintf("%.0f", sums[1].AvgCTSuspended),
			fmt.Sprintf("%.0f%%", (1-sums[1].AvgCTSuspended/sums[0].AvgCTSuspended)*100),
		)
	}
	return tbl.Render(os.Stdout)
}
