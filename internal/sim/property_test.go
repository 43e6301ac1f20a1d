package sim

// Whole-engine property tests: random workloads across every policy and
// initial scheduler must complete every job, satisfy per-job accounting
// conservation (checked inside the engine), never oversubscribe
// capacity, and be deterministic.

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/metrics"
	"netbatch/internal/sched"
	"netbatch/internal/stats"
)

// randomWorkload builds a random small platform and trace.
func randomWorkload(r *rand.Rand) (*cluster.Platform, []job.Spec, error) {
	nPools := 2 + r.IntN(3)
	configs := make([]cluster.PoolConfig, nPools)
	for i := range configs {
		configs[i] = cluster.PoolConfig{
			Classes: []cluster.MachineClass{
				{Count: 1 + r.IntN(3), Cores: 1 + r.IntN(2), MemMB: 4096, Speed: 1.0},
				{Count: 1, Cores: 2, MemMB: 8192, Speed: 0.8 + r.Float64()},
			},
		}
	}
	plat, err := cluster.Build(configs)
	if err != nil {
		return nil, nil, err
	}
	all := make([]int, nPools)
	for i := range all {
		all[i] = i
	}
	n := 30 + r.IntN(120)
	specs := make([]job.Spec, n)
	t := 0.0
	for i := range specs {
		t += r.Float64() * 10
		prio := job.PriorityLow
		cands := all
		if r.IntN(5) == 0 {
			prio = job.PriorityHigh
			cands = all[:1+r.IntN(nPools)]
		}
		specs[i] = job.Spec{
			ID:         job.ID(i + 1),
			Submit:     t,
			Work:       5 + r.Float64()*200,
			Cores:      1 + r.IntN(2),
			MemMB:      512 + r.IntN(4096),
			Priority:   prio,
			Candidates: cands,
		}
	}
	return plat, specs, nil
}

func policyForIndex(i int, seed uint64) core.Policy {
	switch i % 6 {
	case 0:
		return core.NewNoRes()
	case 1:
		return core.NewResSusUtil()
	case 2:
		return core.NewResSusRand(seed)
	case 3:
		return core.NewResSusWaitUtil()
	case 4:
		return core.NewResSusWaitRand(seed)
	default:
		return core.NewResSusMigrate(float64(seed % 20))
	}
}

func initialForIndex(i int, seed uint64) sched.InitialScheduler {
	switch i % 4 {
	case 0:
		return sched.NewRoundRobin()
	case 1:
		return sched.NewPureRoundRobin()
	case 2:
		return sched.NewUtilizationBased()
	default:
		return sched.NewRandomInitial(seed)
	}
}

func TestEngineInvariantsUnderRandomWorkloads(t *testing.T) {
	cfgQuick := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed uint64, polPick, initPick uint8) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
		plat, specs, err := randomWorkload(r)
		if err != nil {
			t.Logf("workload: %v", err)
			return false
		}
		cfg := Config{
			Platform:           plat,
			Initial:            initialForIndex(int(initPick), seed),
			Policy:             policyForIndex(int(polPick), seed),
			RescheduleOverhead: float64(seed % 7),
		}
		res, err := Run(cfg, specs)
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		// Every job completed exactly once.
		if len(res.Jobs) != len(specs) {
			return false
		}
		for _, j := range res.Jobs {
			if j.State() != job.StateCompleted {
				return false
			}
			if j.CompletionTime() < 0 {
				return false
			}
		}
		// Sampled utilization never exceeds capacity.
		for _, p := range res.Util.Points() {
			if p.Y < 0 || p.Y > 100+1e-9 {
				return false
			}
		}
		// Metrics layer accepts the run and components add up.
		sum, err := metrics.Summarize(res.Jobs)
		if err != nil {
			t.Logf("summarize: %v", err)
			return false
		}
		return sum.CheckComponents() == nil
	}, cfgQuick)
	if err != nil {
		t.Fatal(err)
	}
}

// randomFederation builds a random small multi-site platform (with a
// random delay matrix) and a site-tagged trace.
func randomFederation(r *rand.Rand) (*cluster.Platform, []job.Spec, error) {
	nSites := 2 + r.IntN(2)
	poolsPerSite := 1 + r.IntN(3)
	var configs []cluster.PoolConfig
	for s := 0; s < nSites; s++ {
		for p := 0; p < poolsPerSite; p++ {
			configs = append(configs, cluster.PoolConfig{
				Site: string(rune('A' + s)),
				Classes: []cluster.MachineClass{
					{Count: 1 + r.IntN(3), Cores: 1 + r.IntN(2), MemMB: 4096, Speed: 1.0},
					{Count: 1, Cores: 2, MemMB: 8192, Speed: 0.8 + r.Float64()},
				},
			})
		}
	}
	plat, err := cluster.Build(configs)
	if err != nil {
		return nil, nil, err
	}
	rtt := make([][]float64, nSites)
	for a := range rtt {
		rtt[a] = make([]float64, nSites)
		for b := range rtt[a] {
			if a != b {
				rtt[a][b] = float64(1 + r.IntN(20))
			}
		}
	}
	plat, err = plat.WithRTT(rtt)
	if err != nil {
		return nil, nil, err
	}
	nPools := nSites * poolsPerSite
	all := make([]int, nPools)
	for i := range all {
		all[i] = i
	}
	n := 30 + r.IntN(120)
	specs := make([]job.Spec, n)
	t := 0.0
	for i := range specs {
		t += r.Float64() * 10
		prio := job.PriorityLow
		cands := all
		if r.IntN(5) == 0 {
			prio = job.PriorityHigh
			cands = all[:1+r.IntN(nPools)]
		}
		specs[i] = job.Spec{
			ID:         job.ID(i + 1),
			Submit:     t,
			Work:       5 + r.Float64()*200,
			Cores:      1 + r.IntN(2),
			MemMB:      512 + r.IntN(4096),
			Priority:   prio,
			Candidates: cands,
			Site:       r.IntN(nSites),
		}
	}
	return plat, specs, nil
}

func siteSelectorForIndex(i int) sched.SiteSelector {
	switch i % 3 {
	case 0:
		return sched.LocalityFirst{}
	case 1:
		return sched.LeastUtilizedSite{}
	default:
		return sched.LatencyPenalizedUtil{}
	}
}

// TestJobConservationAcrossRandomScenarios is the whole-run job
// conservation invariant over random single- and multi-site scenarios:
// every submitted job is accounted for at the horizon (the engine has
// no kill path, so submitted = completed and queued/running/suspended
// are all zero once Run returns), each job's per-time-bucket accounting
// conserves its submission-to-completion span, and the sampled
// utilization signals — total and per-site — stay non-negative, bounded
// by capacity, and mutually consistent (site series core-weighted-sum
// to the total).
func TestJobConservationAcrossRandomScenarios(t *testing.T) {
	cfgQuick := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed uint64, polPick, selPick uint8) bool {
		r := rand.New(rand.NewPCG(seed, seed^0xa5a5a5a5))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Logf("workload: %v", err)
			return false
		}
		var policy core.Policy
		if polPick%2 == 0 {
			policy = core.NewResSusWaitLatency()
		} else {
			policy = policyForIndex(int(polPick), seed)
		}
		cfg := Config{
			Platform:      plat,
			Initial:       sched.NewFederated(siteSelectorForIndex(int(selPick))),
			Policy:        policy,
			UtilStaleness: float64(seed % 4),
		}
		res, err := Run(cfg, specs)
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		// Conservation: submitted = completed; nothing in flight.
		if len(res.Jobs) != len(specs) {
			t.Logf("submitted %d != completed %d", len(specs), len(res.Jobs))
			return false
		}
		for _, j := range res.Jobs {
			if j.State() != job.StateCompleted {
				t.Logf("job %d left in state %v", j.Spec.ID, j.State())
				return false
			}
			if err := j.CheckConservation(); err != nil {
				t.Log(err)
				return false
			}
		}
		// Utilization signals non-negative and within capacity.
		for _, p := range res.Util.Points() {
			if p.Y < 0 || p.Y > 100+1e-9 {
				t.Logf("total util %v out of range", p.Y)
				return false
			}
		}
		if len(res.SiteUtil) != plat.NumSites() {
			t.Logf("got %d site series for %d sites", len(res.SiteUtil), plat.NumSites())
			return false
		}
		// Per-site series consistent with the total: the core-weighted
		// mean of site utilizations equals platform utilization bin by
		// bin (both are piecewise aggregates of the same samples).
		totalPts := res.Util.Points()
		var siteCores []float64
		for s := 0; s < plat.NumSites(); s++ {
			siteCores = append(siteCores, float64(plat.Site(s).Cores))
		}
		totalCores := float64(plat.TotalCores())
		sitePts := make([][]stats.Point, len(res.SiteUtil))
		for s, ts := range res.SiteUtil {
			sitePts[s] = ts.Points()
			if len(sitePts[s]) != len(totalPts) {
				t.Logf("site %d series length %d != total %d", s, len(sitePts[s]), len(totalPts))
				return false
			}
			for _, p := range sitePts[s] {
				if p.Y < 0 || p.Y > 100+1e-9 {
					t.Logf("site %d util %v out of range", s, p.Y)
					return false
				}
			}
		}
		for i := range totalPts {
			var weighted float64
			for s := range sitePts {
				weighted += sitePts[s][i].Y * siteCores[s]
			}
			weighted /= totalCores
			if math.Abs(weighted-totalPts[i].Y) > 1e-6 {
				t.Logf("bin %d: site-weighted util %v != total %v", i, weighted, totalPts[i].Y)
				return false
			}
		}
		return true
	}, cfgQuick)
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiSiteDeterministic re-runs one random federation and demands
// byte-identical job records.
func TestMultiSiteDeterministic(t *testing.T) {
	r := rand.New(rand.NewPCG(123, 456))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Config {
		return Config{
			Platform: plat,
			Initial:  sched.NewFederated(sched.LatencyPenalizedUtil{}),
			Policy:   core.NewResSusWaitLatency(),
		}
	}
	a, err := Run(mk(), specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Jobs {
		if a.Jobs[k].Completed != b.Jobs[k].Completed {
			t.Fatalf("job %d completion differs across identical runs", k)
		}
	}
	if a.CrossSiteSubmits != b.CrossSiteSubmits || a.CrossSiteMoves != b.CrossSiteMoves {
		t.Fatal("cross-site counters differ across identical runs")
	}
}

func TestEngineDeterministicAcrossPolicies(t *testing.T) {
	r := rand.New(rand.NewPCG(99, 7))
	plat, specs, err := randomWorkload(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mk := func() Config {
			return Config{
				Platform: plat,
				Initial:  initialForIndex(i, 5),
				Policy:   policyForIndex(i, 5),
			}
		}
		a, err := Run(mk(), specs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mk(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a.Jobs {
			if a.Jobs[k].Completed != b.Jobs[k].Completed {
				t.Fatalf("policy %d: job %d completion differs", i, k)
			}
		}
	}
}
