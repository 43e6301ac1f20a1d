package experiments

import (
	"fmt"

	"netbatch/internal/cluster"
	"netbatch/internal/metrics"
	"netbatch/internal/report"
	"netbatch/internal/sched"
	"netbatch/internal/stats"
	"netbatch/internal/trace"
)

// yearScale shrinks the year-long figure runs relative to the requested
// scale: a year of trace at full platform size is ~12M jobs, far beyond
// what the figures need to show their shape.
const yearScale = 0.2

// WeekScenario is the Tables 1–5 environment: the busy-week trace on
// the default NetBatch platform, capacity optionally scaled (0.5 is the
// paper's high-load variant), with the given initial scheduler and
// utilization-view staleness.
func WeekScenario(id string, capacityFactor, staleness float64, newInitial func() sched.InitialScheduler) Scenario {
	return Scenario{
		ID: id,
		Trace: func(seed uint64, scale float64) (*trace.Trace, error) {
			return trace.Generate(trace.ScaleRates(trace.WeekNormal(seed), scale))
		},
		Platform: func(scale float64) (*cluster.Platform, error) {
			return buildPlatform(scale, capacityFactor)
		},
		NewInitial: newInitial,
		Staleness:  staleness,
	}
}

// YearScenario is the Figures 2/4 environment: the year-long trace with
// round-robin initial scheduling, shrunk by yearScale on top of the
// requested scale.
func YearScenario(id string) Scenario {
	return Scenario{
		ID: id,
		Trace: func(seed uint64, scale float64) (*trace.Trace, error) {
			return trace.Generate(trace.YearLong(seed, scale*yearScale))
		},
		Platform: func(scale float64) (*cluster.Platform, error) {
			return buildPlatform(scale*yearScale, 1.0)
		},
		NewInitial: func() sched.InitialScheduler { return sched.NewRoundRobin() },
	}
}

// HighSuspScenario is the §3.2.1 high-suspension environment: a trace
// engineered for a ~14% suspend rate on the full-capacity platform.
func HighSuspScenario(id string) Scenario {
	return Scenario{
		ID: id,
		Trace: func(seed uint64, scale float64) (*trace.Trace, error) {
			return trace.Generate(trace.ScaleRates(trace.HighSuspension(seed), scale))
		},
		Platform: func(scale float64) (*cluster.Platform, error) {
			return buildPlatform(scale, 1.0)
		},
		NewInitial: func() sched.InitialScheduler { return sched.NewRoundRobin() },
	}
}

func init() {
	table1 := tableExperiment(
		"table1",
		"Table 1: Performance under normal load scenario (round-robin initial scheduler)",
		1.0, 0,
		func() sched.InitialScheduler { return sched.NewRoundRobin() },
		susPolicies,
	)
	register(table1)
	register(tableExperiment(
		"table2",
		"Table 2: Performance under high load scenario (round-robin initial scheduler, cores halved)",
		0.5, 0,
		func() sched.InitialScheduler { return sched.NewRoundRobin() },
		susPolicies,
	))
	register(tableExperiment(
		"table3",
		"Table 3: Performance with utilization-based initial scheduling (high load)",
		0.5, 30,
		func() sched.InitialScheduler { return sched.NewUtilizationBased() },
		susPolicies,
	))
	register(tableExperiment(
		"table4",
		"Table 4: Suspended+waiting rescheduling with round robin initial scheduling (high load)",
		0.5, 0,
		func() sched.InitialScheduler { return sched.NewRoundRobin() },
		waitPolicies,
	))
	register(tableExperiment(
		"table5",
		"Table 5: Suspended+waiting rescheduling with utilization-based initial scheduling (high load)",
		0.5, 30,
		func() sched.InitialScheduler { return sched.NewUtilizationBased() },
		waitPolicies,
	))
	register(Experiment{
		ID:     "fig2",
		Title:  "Figure 2: CDF of job suspension time (year-long trace, NoRes)",
		Plan:   yearPlan,
		Render: renderFig2,
	})
	// Figure 3 is Table 1's cells drawn as waste components, so it plans
	// Table 1's matrix and RunAll runs those cells once for both.
	register(Experiment{
		ID:     "fig3",
		Title:  "Figure 3: Average wasted completion time components under normal load",
		Plan:   table1.Plan,
		Render: renderFig3,
	})
	register(Experiment{
		ID:     "fig4",
		Title:  "Figure 4: Suspension (# jobs) and utilization (%) over a one year period",
		Plan:   yearPlan,
		Render: renderFig4,
	})
	register(Experiment{
		ID:     "highsusp",
		Title:  "High Suspension Scenario (§3.2.1): 14% suspend-rate trace",
		Plan:   highSuspPlan,
		Render: renderHighSusp,
	})
}

// yearPlan declares the year-long NoRes matrix with round-robin initial
// scheduling, shared by Figures 2 and 4.
func yearPlan(Options) Matrix {
	return Matrix{
		Scenarios: []Scenario{YearScenario("year")},
		Policies:  susPolicies()[:1], // NoRes
	}
}

func highSuspPlan(Options) Matrix {
	return Matrix{
		Scenarios: []Scenario{HighSuspScenario("highsusp")},
		Policies:  susPolicies()[:2], // NoRes, ResSusUtil
	}
}

func renderFig2(_ Options, mr *MatrixResult) (*Output, error) {
	out := newOutput("fig2", "Figure 2: CDF of job suspension time", mr)
	cdf := metrics.SuspensionCDF(mr.At(0, 0, 0).Result.Jobs)
	out.Series["suspension_cdf"] = cdf.Points(200)
	out.Tables = append(out.Tables, report.CDFTable(out.Title, cdf))
	out.Notes = append(out.Notes,
		"paper: median 437 min, mean 905 min, 20% of suspended jobs > 1100 min",
		fmt.Sprintf("measured: median %.0f min, mean %.0f min, p80 %.0f min",
			cdf.Quantile(0.5), cdf.Mean(), cdf.Quantile(0.8)))
	if len(mr.Seeds) > 1 {
		var med, mean stats.Mean
		for rep := range mr.Seeds {
			c := metrics.SuspensionCDF(mr.At(0, 0, rep).Result.Jobs)
			med.Add(c.Quantile(0.5))
			mean.Add(c.Mean())
		}
		out.Notes = append(out.Notes, fmt.Sprintf(
			"across %d seeds (mean ± 95%% CI): median %.0f ± %.0f min, mean %.0f ± %.0f min",
			len(mr.Seeds), med.Mean(), med.CI95(), mean.Mean(), mean.CI95()))
	}
	return out, nil
}

func renderFig3(_ Options, mr *MatrixResult) (*Output, error) {
	out := newOutput("fig3", "Figure 3: Average wasted completion time (minutes) under normal load", mr)
	waste, err := report.WasteTableCI(out.Title, out.Names, out.Replicates)
	if err != nil {
		return nil, err
	}
	out.Tables = append(out.Tables, waste)
	return out, nil
}

func renderFig4(_ Options, mr *MatrixResult) (*Output, error) {
	out := newOutput("fig4",
		"Figure 4: Suspension (# jobs) and utilization (%) over one year (100-minute bins)", mr)
	r0 := mr.At(0, 0, 0).Result
	utilPts := r0.Util.Points()
	suspPts := r0.Suspended.Points()
	out.Series = map[string][]stats.Point{
		"utilization_pct": utilPts,
		"suspended_jobs":  suspPts,
	}
	meanUtil := r0.Util.MeanOfBins()
	_, peakSusp := r0.Suspended.MaxBin()
	out.Notes = append(out.Notes,
		"paper: overall utilization averages ~40% (typically 20-60%); suspension spikes with bursts",
		fmt.Sprintf("measured: mean utilization %.1f%%, peak suspended jobs per bin %.0f", meanUtil, peakSusp),
		"utilization: "+report.Sparkline(utilPts, 80),
		"suspended:   "+report.Sparkline(suspPts, 80))
	if len(mr.Seeds) > 1 {
		var util stats.Mean
		for rep := range mr.Seeds {
			util.Add(mr.At(0, 0, rep).Result.Util.MeanOfBins())
		}
		out.Notes = append(out.Notes, fmt.Sprintf(
			"across %d seeds: mean utilization %.1f ± %.1f%% (95%% CI)",
			len(mr.Seeds), util.Mean(), util.CI95()))
	}
	return out, nil
}

func renderHighSusp(_ Options, mr *MatrixResult) (*Output, error) {
	out, err := tableOutput("highsusp", "High Suspension Scenario (§3.2.1)", mr)
	if err != nil {
		return nil, err
	}
	noRes, util := out.Summaries[0], out.Summaries[1]
	out.Notes = append(out.Notes,
		"paper: ~14% suspend rate; rescheduling cuts AvgCT(all) by ~7% and AvgCT(suspended) by ~44%",
		fmt.Sprintf("measured: suspend rate %.1f%%; AvgCT(all) reduction %.1f%%; AvgCT(suspended) reduction %.1f%%",
			noRes.SuspendRate,
			(1-util.AvgCTAll/noRes.AvgCTAll)*100,
			(1-util.AvgCTSuspended/noRes.AvgCTSuspended)*100))
	return out, nil
}
