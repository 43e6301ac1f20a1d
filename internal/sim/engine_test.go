package sim

// Result-identity helpers shared by the property, fuzz, checkpoint and
// observability tests, plus whole-run edge cases: the MaxTime failure
// boundary, degenerate platforms and traces, and a forced cross-site
// alias.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
	"netbatch/internal/stats"
)

// fingerprint renders every observable float of a Result in hex so
// comparison is bit-exact, not approximate.
func fingerprint(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan=%x events=%d pre=%d restarts=%d mig=%d waitmoves=%d xsub=%d xmove=%d\n",
		res.Makespan, res.Events, res.Preemptions, res.Restarts, res.Migrations,
		res.WaitMoves, res.CrossSiteSubmits, res.CrossSiteMoves)
	fmt.Fprintf(&sb, "crashes=%d maint=%d kills=%d requeues=%d worklost=%x downcm=%x\n",
		res.Crashes, res.MaintWindows, res.Kills, res.Requeues, res.WorkLost, res.DownCoreMinutes)
	for _, j := range res.Jobs {
		a := j.Acct()
		fmt.Fprintf(&sb, "job %d: pool=%d first=%x done=%x w=%x s=%x we=%x ro=%x e=%x sus=%d re=%d wr=%d k=%d\n",
			j.Spec.ID, j.Pool, j.FirstStart, j.Completed,
			a.Wait, a.Suspend, a.WastedExec, a.RescheduleOverhead, a.Exec,
			a.Suspensions, a.Restarts, a.WaitReschedules, a.Kills)
	}
	series := func(name string, ts *stats.TimeSeries) {
		if ts == nil {
			fmt.Fprintf(&sb, "%s: nil\n", name)
			return
		}
		fmt.Fprintf(&sb, "%s:", name)
		for _, p := range ts.Points() {
			fmt.Fprintf(&sb, " %x/%x", p.X, p.Y)
		}
		sb.WriteString("\n")
	}
	series("util", res.Util)
	series("susp", res.Suspended)
	series("wait", res.Waiting)
	for s, ts := range res.SiteUtil {
		series(fmt.Sprintf("site%d", s), ts)
	}
	return sb.String()
}

// federatedInitial builds the two-level scheduler used by the
// multi-site experiment cells.
func federatedInitial(sel sched.SiteSelector) sched.InitialScheduler {
	return sched.NewFederated(sel)
}

func multiSitePolicyForIndex(i int, seed uint64) core.Policy {
	switch i % 4 {
	case 0:
		return core.NewNoRes()
	case 1:
		return core.NewResSusWaitUtil()
	case 2:
		return core.NewResSusWaitRand(seed)
	default:
		return core.NewResSusWaitLatency()
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\nwant: %.200s\ngot:  %.200s", i+1, x, y)
		}
	}
	return "(no diff)"
}

// TestMaxTimeBoundary pins the MaxTime failure law: a run whose
// makespan fits under the cap succeeds with the uncapped result, even
// when the cap falls just past the makespan, and a run that does not
// fit fails with the MaxTime error.
func TestMaxTimeBoundary(t *testing.T) {
	for _, seed := range []uint64{57, 58, 59, 7} {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(maxTime float64) Config {
			return Config{
				Platform: plat,
				Initial:  federatedInitial(sched.LocalityFirst{}),
				Policy:   core.NewResSusWaitUtil(),
				MaxTime:  maxTime,
			}
		}
		base, err := Run(mk(0), specs)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		res, err := Run(mk(base.Makespan+0.15), specs)
		if err != nil {
			t.Fatalf("seed %d: MaxTime just past the makespan: %v", seed, err)
		}
		if a, b := fingerprint(base), fingerprint(res); a != b {
			t.Fatalf("seed %d: capped run diverged:\n%s", seed, firstDiff(a, b))
		}
		if _, err := Run(mk(base.Makespan*0.75), specs); err == nil ||
			!strings.Contains(err.Error(), "exceeded MaxTime") {
			t.Fatalf("seed %d: MaxTime below the makespan: got %v, want the MaxTime error", seed, err)
		}
	}
}

// TestDegeneratePlatforms runs configurations at the edges of the
// platform model — a single site, a federation with one zero-delay
// cross-site pair, a decision delay longer than every cross-site delay,
// and an empty trace. Each must run (never be rejected), complete every
// job, and reproduce its result bit for bit on a second run.
func TestDegeneratePlatforms(t *testing.T) {
	sites := func(rtt [][]float64) *cluster.Platform {
		configs := make([]cluster.PoolConfig, len(rtt))
		for s := range configs {
			configs[s] = cluster.PoolConfig{
				Site:    string(rune('A' + s)),
				Classes: []cluster.MachineClass{{Count: 2, Cores: 1, MemMB: 8192, Speed: 1.0}},
			}
		}
		p, err := cluster.Build(configs)
		if err != nil {
			t.Fatal(err)
		}
		if p, err = p.WithRTT(rtt); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specs := []job.Spec{
		lowJob(1, 0, 100, 0, 1),
		lowJob(2, 1.5, 80, 0, 1),
		highJob(3, 2.5, 50, 0),
	}
	cases := []struct {
		name  string
		cfg   func() Config
		specs []job.Spec
	}{
		{"single-site", func() Config { return baseConfig(miniPlatform(t, 2, 2)) }, specs},
		{"zero-rtt-pair", func() Config {
			// Sites A, B, C with the A<->B delay degenerate at zero.
			cfg := baseConfig(sites([][]float64{
				{0, 0, 5},
				{0, 0, 5},
				{5, 5, 0},
			}))
			cfg.Initial = federatedInitial(siteSelectorForIndex(0))
			return cfg
		}, specs},
		{"decision-delay-exceeds-rtt", func() Config {
			cfg := baseConfig(sites([][]float64{
				{0, 5},
				{5, 0},
			}))
			cfg.Initial = federatedInitial(siteSelectorForIndex(0))
			cfg.DecisionDelay = 10
			return cfg
		}, specs},
		{"empty-trace", func() Config {
			cfg := baseConfig(sites([][]float64{
				{0, 5},
				{5, 0},
			}))
			cfg.Initial = federatedInitial(siteSelectorForIndex(0))
			return cfg
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg(), tc.specs)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != len(tc.specs) {
				t.Fatalf("%d job records for %d specs", len(res.Jobs), len(tc.specs))
			}
			again, err := Run(tc.cfg(), tc.specs)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fingerprint(res), fingerprint(again); a != b {
				t.Fatalf("rerun diverged:\n%s", firstDiff(a, b))
			}
		})
	}
}

// moveWaitPolicy reschedules any job stalled in pool from's queue to
// pool to, and leaves every other waiting job in place.
type moveWaitPolicy struct {
	from, to int
	th       float64
}

func (moveWaitPolicy) Name() string { return "move-wait-test" }
func (moveWaitPolicy) OnSuspend(*job.Job, []int, sched.PoolView) (int, bool) {
	return 0, false
}
func (m moveWaitPolicy) WaitThreshold() float64 { return m.th }
func (m moveWaitPolicy) OnWaitTimeout(j *job.Job, _ []int, _ sched.PoolView) (int, bool) {
	if j.Pool == m.from {
		return m.to, true
	}
	return 0, false
}

// TestForcedCrossSiteAliasRetires constructs the alias lifecycle
// deterministically across two sites: job 3 waits at pool 0 (site A),
// is wait-moved to pool 1 (site B) at t=3.0, and its tombstoned pool-0
// slot revives when pool 0's machine frees at t=20.3 — dispatching the
// job onto pool 0's machine while its queue label points at pool 1.
// That attach crosses a site boundary, so the job is flagged aliased,
// and its completion must retire the flag: Result.AliasRetirements
// reports it (the experiments runner records it as the registry's
// sim.alias_retirements).
func TestForcedCrossSiteAliasRetires(t *testing.T) {
	configs := []cluster.PoolConfig{
		{Site: "A", Classes: []cluster.MachineClass{{Count: 1, Cores: 1, MemMB: 8192, Speed: 1.0}}},
		{Site: "B", Classes: []cluster.MachineClass{{Count: 1, Cores: 1, MemMB: 8192, Speed: 1.0}}},
	}
	plat, err := cluster.Build(configs)
	if err != nil {
		t.Fatal(err)
	}
	plat, err = plat.WithRTT([][]float64{{0, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(id job.ID, submit, work float64, site int, cands ...int) job.Spec {
		return job.Spec{
			ID: id, Submit: submit, Work: work, Cores: 1, MemMB: 1024,
			Priority: job.PriorityLow, Candidates: cands, Site: site,
		}
	}
	specs := []job.Spec{
		spec(1, 0, 20.3, 0, 0),   // occupies pool 0's machine until t=20.3
		spec(2, 0.4, 31.7, 1, 1), // occupies pool 1's machine until t=32.1
		// Round-robin's first turn over {0,1} is pool 0: job 3 waits
		// at 0, moves to 1 at t=3.0 and is revived at t=20.3. Pool 1
		// must be a candidate for the move to be eligible.
		spec(3, 0.7, 5.9, 0, 0, 1),
	}
	res, err := Run(Config{
		Platform: plat,
		Initial:  sched.NewRoundRobin(),
		Policy:   moveWaitPolicy{from: 0, to: 1, th: 2.3},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	// The revived dispatch must have produced the alias: job 3 starts on
	// pool 0's machine the moment job 1 frees it (t=20.3) even though
	// its queue label moved to pool 1, so it completes at 26.2 — not at
	// 38.0, which is what running behind job 2 on pool 1's own machine
	// would give.
	if got, want := res.Jobs[2].Completed, 20.3+5.9; math.Abs(got-want) > 1e-9 {
		t.Fatalf("job 3 completed at %v; want %v (revived onto pool 0's machine at t=20.3)", got, want)
	}
	if res.AliasRetirements != 1 {
		t.Errorf("AliasRetirements = %d, want 1", res.AliasRetirements)
	}
}
