package experiments

import (
	"fmt"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/metrics"
	"netbatch/internal/report"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

// Multi-site federation scenarios: the production NetBatch runs pools
// "distributed globally at dozens of data centers" (§1) while the
// paper's evaluation emulates one site (§3.1). These cells scale the
// busy-week environment out to N-site federations with inter-site
// delay, comparing site-selector policies and rescheduling strategies
// under the generalized staleness constraint (§3.2.2): a remote site's
// utilization is only visible RTT minutes late, and sending a job (or
// a rescheduled restart) across sites pays that delay for real.

// multiSiteRTT builds the federation's delay matrix: 5 minutes to a
// neighboring site, +5 per additional hop (cluster.MetroRTT), so a
// 6-site federation spans 5–25 minutes — the same order as the paper's
// 30-minute staleness knob, enough for the latency/load trade-off to
// bind.
func multiSiteRTT(nSites int) [][]float64 {
	return cluster.MetroRTT(nSites, 5, 5)
}

// multiSiteRegions names the federation's sites.
func multiSiteRegions(nSites int) []string {
	out := make([]string, nSites)
	for i := range out {
		out[i] = fmt.Sprintf("site-%c", 'A'+i)
	}
	return out
}

// MultiSiteScenario is an n-site federation running the multi-site
// busy week: per-site 7-pool platforms (cluster.SiteNetBatchConfig)
// joined by a metro delay matrix, scheduled by the two-level federated
// scheduler — the given site selector over round-robin within the
// chosen site, the production default.
func MultiSiteScenario(id string, nSites int, staleness float64, newSelector func() sched.SiteSelector) Scenario {
	return Scenario{
		ID: id,
		Trace: func(seed uint64, scale float64) (*trace.Trace, error) {
			return trace.Generate(trace.ScaleRates(trace.MultiSiteWeek(seed, nSites), scale))
		},
		Platform: func(scale float64) (*cluster.Platform, error) {
			perSite := cluster.SiteNetBatchConfig()
			perSite.Scale = scale
			return cluster.NewFederationPlatform(cluster.FederationConfig{
				Regions: multiSiteRegions(nSites),
				PerSite: perSite,
				RTT:     multiSiteRTT(nSites),
			})
		},
		NewInitial: func() sched.InitialScheduler {
			return sched.NewFederated(newSelector())
		},
		Staleness: staleness,
	}
}

// multiSiteYearScale shrinks the year6 bench family on top of the
// requested scale: a simulated year on the full 6-site federation is
// ~12M jobs, and the ROADMAP's single-digit-second target is chased
// at a reduced scale that keeps per-pool load — and thus decision
// density per simulated minute — unchanged.
const multiSiteYearScale = 0.25

// MultiSiteYearScenario is the year-scale federation environment: the
// MultiSiteYear trace (recurring auto bursts over a 500,000-minute
// horizon) on the same per-site platforms and metro delay matrix as
// MultiSiteScenario, shrunk by multiSiteYearScale on top of the
// requested scale. Sampling runs on an hourly grid instead of the
// per-minute default: inter-site view ageing requires sampling, but
// this family exists to measure engine throughput over a simulated
// year, and half a million per-minute ticks would time the sampler
// instead of the engine.
func MultiSiteYearScenario(id string, nSites int, newSelector func() sched.SiteSelector) Scenario {
	return Scenario{
		ID: id,
		Trace: func(seed uint64, scale float64) (*trace.Trace, error) {
			return trace.Generate(trace.ScaleRates(trace.MultiSiteYear(seed, nSites), scale*multiSiteYearScale))
		},
		Platform: func(scale float64) (*cluster.Platform, error) {
			perSite := cluster.SiteNetBatchConfig()
			perSite.Scale = scale * multiSiteYearScale
			return cluster.NewFederationPlatform(cluster.FederationConfig{
				Regions: multiSiteRegions(nSites),
				PerSite: perSite,
				RTT:     multiSiteRTT(nSites),
			})
		},
		NewInitial: func() sched.InitialScheduler {
			return sched.NewFederated(newSelector())
		},
		Tune: func(cfg *sim.Config) { cfg.SampleEvery = 60 },
	}
}

// multiSiteCells enumerates the federation axis: the single-site
// baseline, the three site selectors on a 3-site federation, and the
// latency-penalized selector stretched to 6 sites.
func multiSiteCells() []Scenario {
	locality := func() sched.SiteSelector { return sched.LocalityFirst{} }
	leastUtil := func() sched.SiteSelector { return sched.LeastUtilizedSite{} }
	latency := func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} }
	return []Scenario{
		MultiSiteScenario("fed1", 1, 0, locality),
		MultiSiteScenario("fed3-locality", 3, 0, locality),
		MultiSiteScenario("fed3-least-util", 3, 0, leastUtil),
		MultiSiteScenario("fed3-latency", 3, 0, latency),
		MultiSiteScenario("fed6-latency", 6, 0, latency),
	}
}

func multiSitePolicies() []PolicyFactory {
	return []PolicyFactory{
		{Name: "NoRes", New: func(uint64) core.Policy { return core.NewNoRes() }},
		{Name: "ResSusWaitUtil", New: func(uint64) core.Policy { return core.NewResSusWaitUtil() }},
		{Name: "ResSusWaitLatency", New: func(uint64) core.Policy { return core.NewResSusWaitLatency() }},
	}
}

func init() {
	register(Experiment{
		ID:     "multisite",
		Title:  "Multi-site federation: single-site vs 3-site vs 6-site under latency-aware scheduling",
		Plan:   multiSitePlan,
		Render: renderMultiSite,
	})
}

func multiSitePlan(Options) Matrix {
	return Matrix{Scenarios: multiSiteCells(), Policies: multiSitePolicies()}
}

func renderMultiSite(mr *MatrixResult) (*Output, error) {
	// Flatten the (federation × policy) matrix into one row per cell.
	out := &Output{
		ID:    "multisite",
		Title: "Multi-site federation: single-site vs 3-site vs 6-site under latency-aware scheduling",
	}
	for s, id := range mr.ScenarioIDs {
		for p := range mr.PolicyNames {
			reps := mr.Replicates(s, p)
			out.Names = append(out.Names, id+"/"+mr.PolicyNames[p])
			out.Summaries = append(out.Summaries, reps[0])
			out.Replicates = append(out.Replicates, reps)
		}
	}
	tbl, err := report.PaperTableCI(out.Title, out.Names, out.Replicates)
	if err != nil {
		return nil, err
	}
	out.Tables = append(out.Tables, tbl)

	// Per-site breakdowns for the multi-site federations, first
	// replicate (the site axis is deterministic per seed).
	for s, id := range mr.ScenarioIDs {
		plat := mr.Platforms[s]
		if plat.NumSites() <= 1 {
			continue
		}
		perStrategy := make([][]metrics.SiteSummary, len(mr.PolicyNames))
		for p := range mr.PolicyNames {
			cell := mr.At(s, p, 0)
			sums, err := metrics.SummarizeSites(cell.Result.Jobs, plat.SiteOf, plat.NumSites())
			if err != nil {
				return nil, err
			}
			perStrategy[p] = sums
			out.Notes = append(out.Notes, fmt.Sprintf(
				"%s/%s: cross-site submits %d, cross-site moves %d, wait moves %d",
				id, mr.PolicyNames[p],
				cell.Result.CrossSiteSubmits, cell.Result.CrossSiteMoves, cell.Result.WaitMoves))
		}
		st, err := report.SiteTable(
			fmt.Sprintf("%s — per-site breakdown", id),
			mr.PolicyNames, multiSiteRegions(plat.NumSites()), perStrategy)
		if err != nil {
			return nil, err
		}
		out.Tables = append(out.Tables, st)
	}
	return out, nil
}
