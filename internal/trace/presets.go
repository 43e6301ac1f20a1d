package trace

import "fmt"

// Presets for the paper's scenarios. The constants here were calibrated
// against the published trace statistics: ~40% mean utilization on the
// default ~19k-core platform in a 20-60% band, a suspend rate near 1%
// under the no-rescheduling baseline in the busy week, long-tailed
// service demands, and suspensions lasting hundreds of minutes (median
// 437 / mean 905 in the paper).
//
// Two structural properties carry the paper's rescheduling dynamics:
//
//  1. High-priority bursts are restricted to the pools their business
//     groups own (§2.3), so bursts crush those pools while others idle.
//  2. Most low-priority jobs carry restricted candidate-pool subsets in
//     which owned pools are under-represented (§2.2-§2.3): restricted
//     sets are what make a random rescheduling choice risky (the bad
//     pools stay in the set) while leaving overall wait time low.

// ownedPools is the default owned-pool set: one big pool and two small
// pools, ~16% of platform capacity (pool IDs follow
// cluster.NewNetBatchPlatform layout: 0-3 big, 4-11 medium, 12-19
// small). A modest owned share is what lets bursts crush "those pools"
// while "the overall system utilization is relatively low" (§2.3) and
// keeps the stalled-job mass — and thus AvgWCT — in check. Including a
// big pool matters for Table 3: the utilization-based initial scheduler
// "tends to send more jobs to larger pools which leads to more
// suspension when high priority jobs burst in those pools" (§3.2.2).
func ownedPools() []int { return []int{0, 12, 13} }

// baseWeekConfig holds the parameters shared by the week presets.
func baseWeekConfig(seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Seed:       seed,
		Horizon:    10080, // one week in minutes
		NumPools:   20,
		OwnedPools: ownedPools(),
		// ~16.5 low-priority jobs/min on ~19.2k cores at ~470 busy-core
		// minutes per job ≈ 40% utilization.
		LowRate:          16.5,
		DiurnalAmplitude: 0.20,
		DiurnalPeriod:    1440,
		// 10% of low-priority jobs may run anywhere; the rest carry a
		// 5-pool subset, clustered in the job's affinity group, with
		// owned pools down-weighted.
		SubsetSize:  5,
		AllFraction: 0.10,
		OwnedWeight: 0.30,
		// Affinity groups model data-placement locality. Group A holds
		// ALL the owned pools the main burst hits plus a single small
		// escape pool: a group-A job that gets suspended mid-burst has
		// almost no cool candidates, which is what makes blind random
		// rescheduling risky (§3.2.1) while utilization-guided
		// rescheduling finds the one cool pool until it fills and then
		// retains.
		AffinityGroups: [][]int{
			{0, 12, 13, 7, 16}, // group A: all owned pools + escapes 7, 16
			{4, 5, 8, 14, 17},  // group B
			{1, 6, 9, 15, 18},  // group C
			{2, 3, 10, 11, 19}, // group D
		},
		AffinityStrength: 0.90,
		LowWork: WorkDist{
			Median: 120, Sigma: 1.3,
			TailFrac: 0.02, TailMin: 1500, TailAlpha: 1.25, Cap: 30000,
		},
		HighWork: WorkDist{
			Median: 60, Sigma: 1.0,
			TailFrac: 0.005, TailMin: 800, TailAlpha: 1.5, Cap: 20000,
		},
		MemClassesMB: []int{2 << 10, 4 << 10, 8 << 10, 24 << 10},
		MemWeights:   []float64{0.40, 0.35, 0.20, 0.05},
		CoresClasses: []int{1, 2, 4},
		CoresWeights: []float64{0.80, 0.15, 0.05},
		TaskFraction: 0.25,
		TaskMeanSize: 6,
	}
}

// WeekNormal returns the configuration for the paper's evaluation
// window: one busy week containing "a typical burst of high-priority
// jobs and as a result, a burst of job suspension" (§3.1). Run on the
// full default platform it is the normal-load scenario (Table 1); run
// on the half-capacity platform it is the high-load scenario (Table 2),
// since the paper keeps the trace unchanged and halves the cores.
func WeekNormal(seed uint64) GeneratorConfig {
	cfg := baseWeekConfig(seed)
	cfg.Bursts = []Burst{
		// The main burst: ~1.7 days of sustained high-priority
		// submissions that keep the owned pools (3,000 cores) saturated:
		// 30 jobs/min at ~103 exec-minutes each ≈ 3.1k busy cores, with
		// preemption absorbing the low-priority incumbents.
		{Start: 2000, Duration: 2500, Rate: 30, Pools: ownedPools()},
		// A shorter secondary burst later in the week hitting the two
		// owned small pools — re-suspension risk for jobs that restarted
		// into them.
		{Start: 6800, Duration: 700, Rate: 7, Pools: []int{12, 13}},
	}
	return cfg
}

// HighSuspension returns the §3.2.1 "High Suspension Scenario"
// configuration: a job trace engineered for a suspend rate around 14%
// via longer, stronger, and broader bursts hitting most of the owned
// capacity repeatedly.
func HighSuspension(seed uint64) GeneratorConfig {
	cfg := baseWeekConfig(seed)
	cfg.OwnedPools = []int{0, 1, 2, 3}
	cfg.OwnedWeight = 1.0 // full low-priority exposure in the big pools
	cfg.AllFraction = 0.30
	cfg.LowRate *= 1.25 // busier baseline keeps the big pools contended
	cfg.Bursts = []Burst{
		// Rolling bursts across the big pools (9.6k cores total): each
		// pair (4.8k cores) is oversubscribed by ~55 jobs/min at ~103
		// exec-minutes, and the ping-pong churn suspends a large
		// fraction of the low-priority jobs passing through.
		{Start: 800, Duration: 2600, Rate: 44, Pools: []int{0, 1}},
		{Start: 3600, Duration: 2600, Rate: 44, Pools: []int{2, 3}},
		{Start: 6400, Duration: 2600, Rate: 88, Pools: []int{0, 1, 2, 3}},
	}
	return cfg
}

// PoolsPerSite is the pool count of the multi-site per-site layout
// (cluster.SiteNetBatchConfig: 1 big, 3 medium, 3 small), used to lay
// out MultiSiteWeek's site-major pool IDs. SitePoolCores is that
// site's core count (1500 machines × 4 cores), used to scale arrival
// rates so per-core load matches the single-site busy week (~40%
// utilization). Both mirror cluster.SiteNetBatchConfig — the trace
// layer stays independent of package cluster, so the pairing is
// asserted by TestMultiSitePresetMatchesPlatform in
// internal/experiments, which imports both.
const (
	PoolsPerSite  = 7
	SitePoolCores = 6000
)

// MultiSiteWeek returns the busy-week configuration for an n-site
// federation built from cluster.SiteNetBatchConfig (7 pools and 6,000
// cores per site, site-major pool IDs). The trace keeps the paper's
// structure — diurnal low-priority load at ~40% offered utilization,
// a main multi-day high-priority burst and a shorter secondary one —
// but distributes it geographically: every job originates at a site,
// most restricted candidate subsets stay site-local (data placement),
// and the bursts crush the owned pools of specific sites, so relief
// capacity exists mostly across a site boundary. That makes the
// cross-site dispatch/rescheduling trade-off (delay vs. load) the
// binding constraint, the multi-site analogue of §3.2.2's staleness
// caveat.
func MultiSiteWeek(seed uint64, nSites int) GeneratorConfig {
	if nSites < 1 {
		nSites = 1
	}
	cfg := baseWeekConfig(seed)
	cfg.NumPools = PoolsPerSite * nSites
	cfg.SitePools = make([][]int, nSites)
	for s := 0; s < nSites; s++ {
		for i := 0; i < PoolsPerSite; i++ {
			cfg.SitePools[s] = append(cfg.SitePools[s], s*PoolsPerSite+i)
		}
	}
	cfg.SiteLocalFraction = 0.85
	// Owned pools: each site's big pool (pool s*7) and first small pool
	// (pool s*7+4) belong to that site's business groups.
	cfg.OwnedPools = nil
	for s := 0; s < nSites; s++ {
		cfg.OwnedPools = append(cfg.OwnedPools, s*PoolsPerSite, s*PoolsPerSite+4)
	}
	// Site-local candidate subsets are 4 of the site's 7 pools; a small
	// fraction of jobs may run anywhere in the federation.
	cfg.SubsetSize = 4
	cfg.AllFraction = 0.05
	cfg.AffinityGroups = nil // locality is carried by SitePools instead
	// Scale the base load to the federation's capacity (the single-site
	// week runs 16.5 jobs/min on ~19.2k cores).
	cfg.LowRate = 16.5 * float64(SitePoolCores*nSites) / 19200.0
	// The main burst saturates site 0's owned pools (2,700 cores) for
	// ~1.7 days; the secondary burst hits the next site's owned pools
	// (or site 0 again in a 1-site federation).
	second := cfg.OwnedPools[:2]
	if nSites > 1 {
		second = []int{PoolsPerSite, PoolsPerSite + 4}
	}
	cfg.Bursts = []Burst{
		{Start: 2000, Duration: 2500, Rate: 26, Pools: []int{0, 4}},
		{Start: 6800, Duration: 700, Rate: 7, Pools: append([]int(nil), second...)},
	}
	return cfg
}

// FaultyMultiSiteWeek is the MultiSiteWeek busy week meant to be
// replayed on a federation whose machines crash and go down for
// maintenance (the faults experiment configures the engine's fault
// subsystem; the generator never reads machine health).
//
// One workload change is forced by the fault model itself: NetBatch
// restarts killed jobs from the beginning (no checkpointing), so a job
// whose service demand exceeds the time between kills of its machine
// can NEVER finish — under the faults experiment's regime (a window
// every 2,880 minutes taking a fifth of a site's machines) a machine is
// hit by maintenance every ≈ 14,400 minutes, and the busy week's
// 30,000-minute tail cap would starve forever. The faulty preset
// therefore caps service demands well below the inter-kill horizon;
// the divergence of restart-based recovery on longer jobs is exactly
// the §2.3 restart-vs-checkpoint trade-off, surfaced by machine
// failures instead of rescheduling policy.
func FaultyMultiSiteWeek(seed uint64, nSites int) GeneratorConfig {
	cfg := MultiSiteWeek(seed, nSites)
	cfg.LowWork.Cap = 4000
	cfg.HighWork.Cap = 2000
	return cfg
}

// MultiSiteYear returns the year-scale configuration for an n-site
// federation: the MultiSiteWeek environment — site-major pool layout,
// site-local candidate subsets, per-site owned pools — stretched to
// the 500,000-minute horizon of the year-long runs, with the week's
// two fixed bursts replaced by recurring randomly placed
// high-priority bursts (AutoBursts, as in YearLong: one roughly every
// 11 days, hours to a week long). Rates are full-scale; callers pair
// the trace with an equally scaled platform, exactly as with
// MultiSiteWeek.
func MultiSiteYear(seed uint64, nSites int) GeneratorConfig {
	cfg := MultiSiteWeek(seed, nSites)
	cfg.Horizon = 500000
	cfg.Bursts = nil
	cfg.Auto = &AutoBursts{
		MeanGap:       16000,
		MeanDuration:  1500,
		MaxDuration:   10080,
		Rate:          26,
		PoolsPerBurst: 2,
	}
	return cfg
}

// YearLong returns the configuration for the year-scale runs behind
// Figures 2 and 4: 500,000 minutes with recurring randomly placed
// bursts. scale shrinks the arrival rate to pair with an equally scaled
// platform (cluster.NetBatchConfig.Scale), keeping per-pool load — and
// thus the shape of the series — unchanged while keeping runtime sane.
func YearLong(seed uint64, scale float64) GeneratorConfig {
	cfg := baseWeekConfig(seed)
	cfg.Horizon = 500000
	cfg.LowRate *= scale
	cfg.Auto = &AutoBursts{
		MeanGap:       16000, // a burst roughly every 11 days
		MeanDuration:  1500,  // hours-long typical...
		MaxDuration:   10080, // ...up to a week (§2.3)
		Rate:          30 * scale,
		PoolsPerBurst: 2,
	}
	return cfg
}

// Preset returns the named preset's configuration — "week"
// (WeekNormal), "highsusp" (HighSuspension) or "year" (YearLong) — for
// seed, with its arrival rates scaled by scale to pair with an equally
// scaled platform.
func Preset(name string, seed uint64, scale float64) (GeneratorConfig, error) {
	switch name {
	case "week":
		return ScaleRates(WeekNormal(seed), scale), nil
	case "highsusp":
		return ScaleRates(HighSuspension(seed), scale), nil
	case "year":
		return YearLong(seed, scale), nil
	}
	return GeneratorConfig{}, fmt.Errorf("trace: unknown preset %q (want week, highsusp, or year)", name)
}

// ScaleRates multiplies a configuration's arrival rates — the
// low-priority rate, every explicit burst's and the auto bursts' — by
// s, to pair the trace with a platform scaled by s while keeping
// per-pool load unchanged. cfg's Bursts and Auto are copied before
// scaling, never modified.
func ScaleRates(cfg GeneratorConfig, s float64) GeneratorConfig {
	if s == 1.0 {
		return cfg
	}
	cfg.LowRate *= s
	bursts := append([]Burst(nil), cfg.Bursts...)
	for i := range bursts {
		bursts[i].Rate *= s
	}
	cfg.Bursts = bursts
	if cfg.Auto != nil {
		a := *cfg.Auto
		a.Rate *= s
		cfg.Auto = &a
	}
	return cfg
}
