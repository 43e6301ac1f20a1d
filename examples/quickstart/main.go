// Quickstart: build a small NetBatch-like platform, generate a bursty
// synthetic trace, and compare the NoRes baseline against ResSusUtil
// dynamic rescheduling — the paper's headline experiment in miniature.
//
// Run with:
//
//	go run ./examples/quickstart
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
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A scaled-down version of the paper's platform: 20 heterogeneous
	// pools at 5% size (~960 cores).
	platCfg := cluster.DefaultNetBatchConfig()
	platCfg.Scale = 0.05
	plat, err := cluster.NewNetBatchPlatform(platCfg)
	if err != nil {
		return err
	}

	// A one-week trace with a mid-week burst of pool-restricted
	// high-priority jobs, scaled to match the platform.
	tr, err := trace.Generate(trace.ScaleRates(trace.WeekNormal(1), 0.05))
	if err != nil {
		return err
	}
	fmt.Printf("platform: %d pools, %d cores; trace: %d jobs, offered utilization %.0f%%\n\n",
		plat.NumPools(), plat.TotalCores(), len(tr.Jobs),
		tr.OfferedUtilization(plat.TotalCores())*100)

	// Simulate both strategies on the identical trace.
	var names []string
	var sums []metrics.Summary
	for _, policy := range []core.Policy{core.NewNoRes(), core.NewResSusUtil()} {
		res, err := sim.Run(sim.Config{
			Platform: plat,
			Initial:  sched.NewRoundRobin(),
			Policy:   policy,
		}, tr.Jobs)
		if err != nil {
			return err
		}
		sum, err := metrics.Summarize(res.Jobs)
		if err != nil {
			return err
		}
		names = append(names, policy.Name())
		sums = append(sums, sum)
	}

	tbl, err := report.PaperTable("NoRes vs ResSusUtil (minutes)", names, sums)
	if err != nil {
		return err
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nAvgCT of suspended jobs cut by %.0f%%; system waste (AvgWCT) cut by %.0f%%\n",
		(1-sums[1].AvgCTSuspended/sums[0].AvgCTSuspended)*100,
		(1-sums[1].AvgWCT/sums[0].AvgWCT)*100)
	return nil
}
