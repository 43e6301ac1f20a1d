package sim

// Optimistic-engine determinism and robustness: Time Warp execution
// must be bit-identical to the serial reference (random and skewed
// federations, faults, cancellation, MaxTime parity, forced cross-site
// aliases), and its speculation machinery — rollback, commit fences,
// adaptive windows — must actually engage on workloads with cross-site
// traffic rather than degenerating to lockstep.

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"netbatch/internal/cluster"
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// skewedFederation builds a platform where site 0 holds 8 of 10 pools
// and draws ~80% of the submissions: one shard carries most of the
// work, and most cross-site traffic leaves or enters the hot site.
func skewedFederation(r *rand.Rand) (*cluster.Platform, []job.Spec, error) {
	const nSites = 3
	poolsAt := [nSites]int{8, 1, 1}
	var configs []cluster.PoolConfig
	for s := 0; s < nSites; s++ {
		for p := 0; p < poolsAt[s]; p++ {
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
	nPools := plat.NumPools()
	all := make([]int, nPools)
	for i := range all {
		all[i] = i
	}
	n := 40 + r.IntN(100)
	specs := make([]job.Spec, n)
	t := 0.0
	for i := range specs {
		t += r.Float64() * 8
		site := 0
		if r.IntN(5) == 0 {
			site = 1 + r.IntN(nSites-1)
		}
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
			Site:       site,
		}
	}
	return plat, specs, nil
}

// TestOptimisticMatchesSerialRandomFederations is the engine-identity
// property test over two input families: random federations, and
// skewed federations (run with at least two Ps, so the burst workers
// really run concurrently under -race).
func TestOptimisticMatchesSerialRandomFederations(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		checkOptimisticMatchesSerial(t, randomFederation, 24)
	})
	t.Run("skewed", func(t *testing.T) {
		if prev := runtime.GOMAXPROCS(0); prev < 2 {
			runtime.GOMAXPROCS(2)
			defer runtime.GOMAXPROCS(prev)
		}
		checkOptimisticMatchesSerial(t, skewedFederation, 16)
	})
}

func checkOptimisticMatchesSerial(t *testing.T, family func(*rand.Rand) (*cluster.Platform, []job.Spec, error), count int) {
	runs, skips := 0, 0
	cfgQuick := &quick.Config{MaxCount: count}
	err := quick.Check(func(seed uint64, polPick, selPick uint8, staleness uint8) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		plat, specs, err := family(r)
		if err != nil {
			t.Logf("workload: %v", err)
			return false
		}
		base := Config{
			Platform:          plat,
			Initial:           federatedInitial(siteSelectorForIndex(int(selPick))),
			Policy:            multiSitePolicyForIndex(int(polPick), seed),
			UtilStaleness:     float64(staleness % 40),
			CheckConservation: true,
		}
		serialRes, err := Run(base, specs)
		if err != nil {
			t.Logf("serial: %v", err)
			return false
		}
		opt := base
		opt.Engine = EngineOptimistic
		opt.Initial = federatedInitial(siteSelectorForIndex(int(selPick)))
		opt.Policy = multiSitePolicyForIndex(int(polPick), seed)
		optRes, err := Run(opt, specs)
		if err != nil {
			t.Logf("optimistic: %v", err)
			return false
		}
		runs++
		if optRes.ambiguousTies {
			skips++
			t.Logf("seed %d: ambiguous tie observed, skipping comparison", seed)
			return true
		}
		a, b := fingerprint(serialRes), fingerprint(optRes)
		if a != b {
			t.Logf("seed %d sel %d pol %d: serial and optimistic results differ:\n%s",
				seed, selPick%3, polPick%4, firstDiff(a, b))
			return false
		}
		return true
	}, cfgQuick)
	if err != nil {
		t.Fatal(err)
	}
	if runs > 0 && skips == runs {
		t.Errorf("all %d runs skipped as ambiguous ties: bit-identity was never actually compared", runs)
	}
}

// TestEngineFallbackDegeneratePlatforms pins the Δ=0 edge for the
// partitioned engine: a single-site platform, a federation with one
// zero-RTT cross-site pair, and a decision delay exceeding the smallest
// cross-site delay all make parallelizable() false, and Run must route
// them to the serial kernel — producing bit-identical results, never
// rejecting the config.
func TestEngineFallbackDegeneratePlatforms(t *testing.T) {
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
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"single-site", func() Config { return baseConfig(miniPlatform(t, 2, 2)) }},
		{"zero-rtt-pair", func() Config {
			// Sites A, B, C with the A<->B delay degenerate at zero:
			// one bad edge is enough to void the whole lookahead.
			cfg := baseConfig(sites([][]float64{
				{0, 0, 5},
				{0, 0, 5},
				{5, 5, 0},
			}))
			cfg.Initial = federatedInitial(siteSelectorForIndex(0))
			return cfg
		}},
		{"decision-delay-exceeds-lookahead", func() Config {
			cfg := baseConfig(sites([][]float64{
				{0, 5},
				{5, 0},
			}))
			cfg.Initial = federatedInitial(siteSelectorForIndex(0))
			cfg.DecisionDelay = 10
			return cfg
		}},
	}
	specs := []job.Spec{
		lowJob(1, 0, 100, 0, 1),
		lowJob(2, 1.5, 80, 0, 1),
		highJob(3, 2.5, 50, 0),
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialRes, err := Run(tc.cfg(), specs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg()
			cfg.Engine = EngineOptimistic
			res, err := Run(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(serialRes) != fingerprint(res) {
				t.Fatal("optimistic fallback differs from serial")
			}
		})
	}
}

// TestOptimisticRollbackMachinery drives the full Time Warp cycle —
// snapshot push, restore through the reverse-delta chain, replay —
// hard, and proves it invisible. In production the burst cap at the
// earliest known decision time makes rollbacks rare (only decisions
// armed mid-burst trigger them), and single-P runs avoid speculation
// entirely; this test forces the worker path and removes the cap, so
// every deciding commit rolls overshooting shards back, on workloads
// whose serial fingerprints are known. Identical results plus nonzero
// rollback counters mean the machinery both engaged and healed.
func TestOptimisticRollbackMachinery(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	optUncapped = true
	defer func() { optUncapped = false }()
	snaps0, rolls0 := optSnapshots.Load(), optRollbacks.Load()

	compared := 0
	for seed := uint64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewPCG(seed, seed*0x9e3779b9))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Fatalf("seed %d: workload: %v", seed, err)
		}
		base := Config{
			Platform:          plat,
			Initial:           federatedInitial(siteSelectorForIndex(int(seed % 3))),
			Policy:            multiSitePolicyForIndex(int(seed%4), seed),
			UtilStaleness:     float64(seed * 5 % 40),
			CheckConservation: true,
		}
		serialRes, err := Run(base, specs)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		opt := base
		opt.Engine = EngineOptimistic
		opt.Initial = federatedInitial(siteSelectorForIndex(int(seed % 3)))
		opt.Policy = multiSitePolicyForIndex(int(seed%4), seed)
		optRes, err := Run(opt, specs)
		if err != nil {
			t.Fatalf("seed %d: optimistic: %v", seed, err)
		}
		if optRes.ambiguousTies {
			t.Logf("seed %d: ambiguous tie observed, skipping comparison", seed)
			continue
		}
		compared++
		if a, b := fingerprint(serialRes), fingerprint(optRes); a != b {
			t.Fatalf("seed %d: uncapped speculation diverged from serial:\n%s", seed, firstDiff(a, b))
		}
	}
	if compared == 0 {
		t.Fatal("every workload skipped as ambiguous: rollback bit-identity was never compared")
	}
	if snaps := optSnapshots.Load() - snaps0; snaps == 0 {
		t.Error("no rollback snapshots were pushed: speculation never left the certain region")
	}
	if rolls := optRollbacks.Load() - rolls0; rolls == 0 {
		t.Error("no rollbacks occurred: the uncapped window never overshot a commit")
	}
}

// TestOptimisticCancelNoLeak pins prompt cancellation return and
// goroutine hygiene for a run canceled before it starts (see
// TestParallelCancelNoLeak for a mid-run cancel).
func TestOptimisticCancelNoLeak(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(Config{
		Platform: plat,
		Initial:  federatedInitial(siteSelectorForIndex(0)),
		Policy:   multiSitePolicyForIndex(1, 7),
		Engine:   EngineOptimistic,
		Context:  ctx,
	}, specs)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// moveWaitPolicy reschedules any job stalled in pool from's queue to
// pool to, and leaves every other waiting job in place.
type moveWaitPolicy struct {
	from, to int
	th       float64
}

func (moveWaitPolicy) Name() string { return "move-wait-test" }
func (moveWaitPolicy) OnSuspend(float64, *job.Job, sched.PoolView) (int, bool) {
	return 0, false
}
func (m moveWaitPolicy) WaitThreshold() float64 { return m.th }
func (m moveWaitPolicy) OnWaitTimeout(_ float64, j *job.Job, _ sched.PoolView) (int, bool) {
	if j.Pool == m.from {
		return m.to, true
	}
	return 0, false
}

// TestOptimisticForcedCrossSiteAlias constructs the alias lifecycle
// deterministically across two sites: job 3 waits at pool 0 (site A),
// is wait-moved to pool 1 (site B) at t=3.0, and its tombstoned pool-0
// slot revives when pool 0's machine frees at t=20.3 — dispatching the
// job onto pool 0's machine while its queue label points at pool 1.
// That attach crosses a site boundary, so the job is flagged aliased
// (serializing every capacity handoff), and its completion must retire
// the flag through the ledger. Both engines count the retirement, and
// the optimistic result is bit-identical to serial with the burst
// workers inline (one P) and concurrent (two Ps).
func TestOptimisticForcedCrossSiteAlias(t *testing.T) {
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
		spec(3, 0.7, 5.9, 0, 0),  // waits at 0, moves to 1 at t=3.0, revived at t=20.3
	}
	mk := func(engine string) Config {
		return Config{
			Platform:          plat,
			Initial:           sched.NewRoundRobin(),
			Policy:            moveWaitPolicy{from: 0, to: 1, th: 2.3},
			Engine:            engine,
			CheckConservation: true,
		}
	}
	serialRes, err := Run(mk(EngineSerial), specs)
	if err != nil {
		t.Fatal(err)
	}
	// The revived dispatch must have produced the alias: job 3 starts on
	// pool 0's machine the moment job 1 frees it (t=20.3) even though
	// its queue label moved to pool 1, so it completes at 26.2 — not at
	// 38.0, which is what running behind job 2 on pool 1's own machine
	// would give.
	if got, want := serialRes.Jobs[2].Completed, 20.3+5.9; math.Abs(got-want) > 1e-9 {
		t.Fatalf("job 3 completed at %v; want %v (revived onto pool 0's machine at t=20.3)", got, want)
	}
	if serialRes.AliasRetirements != 1 {
		t.Errorf("serial AliasRetirements = %d, want 1", serialRes.AliasRetirements)
	}
	want := fingerprint(serialRes)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		optRes, err := Run(mk(EngineOptimistic), specs)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if optRes.ambiguousTies {
			t.Fatalf("GOMAXPROCS=%d: forced-alias scenario hit an ambiguous tie; timestamps need adjusting", procs)
		}
		if got := fingerprint(optRes); got != want {
			t.Fatalf("GOMAXPROCS=%d: serial and optimistic results differ:\n%s", procs, firstDiff(want, got))
		}
		if optRes.AliasRetirements != 1 {
			t.Errorf("GOMAXPROCS=%d: optimistic AliasRetirements = %d, want 1", procs, optRes.AliasRetirements)
		}
	}
}
