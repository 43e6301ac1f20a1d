package experiments

import (
	"fmt"

	"netbatch/internal/metrics"
	"netbatch/internal/report"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

// The faults experiment stresses the rescheduling strategies on
// federations whose machines fail and go down for maintenance — the
// operating regime the ILDG middleware status report highlights
// (running across unreliable sites) and the biggest scenario gap
// between the paper's single-healthy-site evaluation and a production
// federation. Every cell replays the multi-site busy week under one
// fault regime (FaultScenario): per-site machine crashes, staggered
// maintenance windows, kill-and-requeue victims by default, plus one
// 3-site cell set with the drain policy for the victim-policy
// comparison. Fault streams fork per cell from the replicate seed, so
// the rendered report is deterministic (pinned by the golden test).

// FaultScenario is an n-site federation running the faulty busy week:
// the MultiSiteScenario environment under the faults experiment's
// regime with the given victim policy. The regime crashes a machine per
// site roughly every 33 hours (repaired in ~5 hours on average) and
// opens a maintenance window every two days taking a fifth of the
// site's machines down for four hours. At those rates downtime claims
// a few percent of capacity — enough to make availability, goodput and
// requeue churn visible without drowning the paper's rescheduling
// dynamics.
func FaultScenario(id string, nSites int, victim string) Scenario {
	sc := MultiSiteScenario(id, nSites, 0,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })
	sc.Trace = func(seed uint64, scale float64) (*trace.Trace, error) {
		return trace.Generate(trace.ScaleRates(trace.FaultyMultiSiteWeek(seed, nSites), scale))
	}
	sc.Faults = &sim.FaultConfig{
		MTBF:          2000,
		MTTR:          300,
		MaintPeriod:   2880,
		MaintDuration: 240,
		MaintFraction: 0.20,
		Victim:        victim,
	}
	return sc
}

// faultCells enumerates the fault experiment's federation axis: 1, 3
// and 6 sites under kill-and-requeue, plus the 3-site federation under
// drain for the victim-policy comparison.
func faultCells() []Scenario {
	return []Scenario{
		FaultScenario("fed1-faults", 1, sim.VictimRequeue),
		FaultScenario("fed3-faults", 3, sim.VictimRequeue),
		FaultScenario("fed6-faults", 6, sim.VictimRequeue),
		FaultScenario("fed3-drain", 3, sim.VictimDrain),
	}
}

func init() {
	register(Experiment{
		ID:     "faults",
		Title:  "Fault & maintenance: 1/3/6-site federations under crashes and maintenance windows",
		Plan:   faultsPlan,
		Render: renderFaults,
	})
}

func faultsPlan(Options) Matrix {
	return Matrix{Scenarios: faultCells(), Policies: multiSitePolicies()}
}

func renderFaults(opts Options, mr *MatrixResult) (*Output, error) {
	out := &Output{
		ID:    "faults",
		Title: "Fault & maintenance: 1/3/6-site federations under crashes and maintenance windows",
	}
	var faultSums []metrics.FaultSummary
	for s, sc := range faultCells() {
		plat, err := sc.Platform(opts.withDefaults().Scale)
		if err != nil {
			return nil, err
		}
		for p := range mr.PolicyNames {
			reps := mr.Replicates(s, p)
			out.Names = append(out.Names, sc.ID+"/"+mr.PolicyNames[p])
			out.Summaries = append(out.Summaries, reps[0])
			out.Replicates = append(out.Replicates, reps)

			r0 := mr.At(s, p, 0).Result
			fs, err := metrics.SummarizeFaults(r0.Jobs, metrics.FaultStats{
				Crashes:         r0.Crashes,
				MaintWindows:    r0.MaintWindows,
				Kills:           r0.Kills,
				Requeues:        r0.Requeues,
				WorkLost:        r0.WorkLost,
				DownCoreMinutes: r0.DownCoreMinutes,
				CoreMinutes:     float64(plat.TotalCores()) * r0.Makespan,
			})
			if err != nil {
				return nil, err
			}
			faultSums = append(faultSums, fs)
			out.Notes = append(out.Notes, fmt.Sprintf(
				"%s/%s: availability %.2f%%, goodput %.2f%%, crashes %d, windows %d, kills %d, requeues %d",
				sc.ID, mr.PolicyNames[p],
				fs.AvailabilityPct, fs.GoodputPct, fs.Crashes, fs.MaintWindows, fs.Kills, fs.Requeues))
		}
	}
	tbl, err := report.PaperTableCI(out.Title, out.Names, out.Replicates)
	if err != nil {
		return nil, err
	}
	ftbl, err := report.FaultTable(
		"Fault & maintenance — availability, goodput and churn (first replicate)",
		out.Names, faultSums)
	if err != nil {
		return nil, err
	}
	out.Tables = append(out.Tables, tbl, ftbl)
	return out, nil
}
