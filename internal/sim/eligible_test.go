package sim

import (
	"strings"
	"testing"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// TestMachineClassFits pins the static rule a machine class applies to
// a job: the OS matches when the job names one, and the class has the
// job's cores and memory.
func TestMachineClassFits(t *testing.T) {
	cls := machineClass{cores: 4, memMB: 8192, os: "linux"}
	cases := []struct {
		name string
		spec job.Spec
		want bool
	}{
		{"fits", job.Spec{Cores: 2, MemMB: 4096}, true},
		{"exactFit", job.Spec{Cores: 4, MemMB: 8192}, true},
		{"tooManyCores", job.Spec{Cores: 8, MemMB: 1}, false},
		{"tooMuchMem", job.Spec{Cores: 1, MemMB: 9000}, false},
		{"osMatch", job.Spec{Cores: 1, MemMB: 1, OS: "linux"}, true},
		{"osMismatch", job.Spec{Cores: 1, MemMB: 1, OS: "windows"}, false},
		{"osAny", job.Spec{Cores: 1, MemMB: 1, OS: ""}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := cls.fits(&c.spec); got != c.want {
				t.Fatalf("fits = %v, want %v", got, c.want)
			}
		})
	}
}

// TestSplitClassesPoolIneligible gives pool 0 one class with the job's
// cores and another with its memory, so no machine there can ever run
// it. Round-robin would take pool 0 first, but the job must go to pool
// 1, the only pool with a class that has both.
func TestSplitClassesPoolIneligible(t *testing.T) {
	plat, err := cluster.Build([]cluster.PoolConfig{
		{Classes: []cluster.MachineClass{
			{Count: 2, Cores: 8, MemMB: 4096, Speed: 1.0},
			{Count: 2, Cores: 2, MemMB: 16384, Speed: 1.0},
		}},
		{Classes: []cluster.MachineClass{{Count: 1, Cores: 8, MemMB: 16384, Speed: 1.0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := lowJob(1, 0, 10, 0, 1)
	spec.Cores, spec.MemMB = 8, 8192
	res := run(t, baseConfig(plat), []job.Spec{spec})
	if j := res.Jobs[0]; j.Pool != 1 || j.Completed != 10 {
		t.Fatalf("job ran in pool %d, done at %v; want pool 1 at 10", j.Pool, j.Completed)
	}
}

// TestReschedulingKeepsOSCompatibility lists an idle windows pool among
// linux jobs' candidates. It is the least utilized pool all run long,
// so a utilization-guided or random restart would take it if it were
// offered; it is never eligible, so no job may land there. In each
// round, equal turns place two linux jobs on pools 0 and 2, and a
// high-priority job suspends the one on pool 0.
func TestReschedulingKeepsOSCompatibility(t *testing.T) {
	pool := func(n int, os string) cluster.PoolConfig {
		return cluster.PoolConfig{Classes: []cluster.MachineClass{{Count: n, Cores: 1, MemMB: 8192, Speed: 1.0, OS: os}}}
	}
	plat, err := cluster.Build([]cluster.PoolConfig{pool(1, "linux"), pool(2, "windows"), pool(2, "linux")})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	var specs []job.Spec
	for i := range rounds {
		base := float64(200 * i)
		round := []job.Spec{
			lowJob(job.ID(3*i+1), base, 100, 0, 1, 2),
			lowJob(job.ID(3*i+2), base+1, 100, 0, 1, 2),
			highJob(job.ID(3*i+3), base+5, 20, 0),
		}
		for _, s := range round {
			s.OS = "linux"
			specs = append(specs, s)
		}
	}
	for _, pol := range []core.Policy{core.NewResSusUtil(), core.NewResSusRand(3)} {
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := baseConfig(plat)
			cfg.Initial = sched.NewPureRoundRobin()
			cfg.Policy = pol
			res := run(t, cfg, specs)
			// ResSusUtil moves every suspended job to pool 2 (half busy);
			// ResSusRand restarts every one somewhere.
			if res.Restarts != rounds {
				t.Fatalf("restarts = %d, want one per round (%d)", res.Restarts, rounds)
			}
			for _, j := range res.Jobs {
				if j.Pool == 1 {
					t.Fatalf("job %d restarted into the windows pool", j.Spec.ID)
				}
			}
		})
	}
}

// fixedPool is an initial scheduler that always picks the same pool.
type fixedPool int

func (fixedPool) Name() string                                      { return "fixed" }
func (f fixedPool) SelectPool(*job.Spec, []int, sched.PoolView) int { return int(f) }

// fixedSite is a site selector that always picks the same site.
type fixedSite int

func (fixedSite) Name() string                                      { return "fixed-site" }
func (f fixedSite) SelectSite(*job.Spec, []int, sched.SiteView) int { return int(f) }

// fixedMove is a policy that always moves a job to the same pool.
type fixedMove struct {
	pool int
	th   float64
}

func (fixedMove) Name() string                                            { return "fixed-move" }
func (f fixedMove) OnSuspend(*job.Job, []int, sched.PoolView) (int, bool) { return f.pool, true }
func (f fixedMove) WaitThreshold() float64                                { return f.th }
func (f fixedMove) OnWaitTimeout(*job.Job, []int, sched.PoolView) (int, bool) {
	return f.pool, true
}

// TestPickOutsideEligibleFails runs schedulers, site selectors and
// policies that pick a pool outside the job's eligible ones: an
// ineligible candidate, a pool that does not exist, or (through
// Federated) a site holding no eligible pool. Each run fails with an
// error naming the component and the job instead of panicking or
// placing the job.
func TestPickOutsideEligibleFails(t *testing.T) {
	// Three single-machine sites; pool 2's machine runs windows, so the
	// linux jobs below have eligible pools {0, 1}.
	var configs []cluster.PoolConfig
	for i, os := range []string{"linux", "linux", "windows"} {
		configs = append(configs, cluster.PoolConfig{
			Site:    string(rune('A' + i)),
			Classes: []cluster.MachineClass{{Count: 1, Cores: 1, MemMB: 8192, Speed: 1.0, OS: os}},
		})
	}
	plat, err := cluster.Build(configs)
	if err != nil {
		t.Fatal(err)
	}
	linux := func(s job.Spec) job.Spec { s.OS = "linux"; return s }
	submit := []job.Spec{linux(lowJob(1, 0, 10, 0, 1, 2))}
	// Job 2 preempts job 1 on pool 0's machine.
	preempt := []job.Spec{linux(lowJob(1, 0, 100, 0, 2)), linux(highJob(2, 1, 10, 0, 2))}
	// Job 2 waits behind job 1 at pool 0.
	wait := []job.Spec{linux(lowJob(1, 0, 100, 0, 2)), linux(lowJob(2, 1, 10, 0, 2))}
	for _, tc := range []struct {
		name    string
		initial sched.InitialScheduler
		policy  core.Policy
		specs   []job.Spec
		want    string
	}{
		{"scheduler/ineligible", fixedPool(2), core.NewNoRes(), submit,
			"scheduler fixed picked pool 2 for job 1, not one of its eligible pools [0 1]"},
		{"scheduler/out of range", fixedPool(99), core.NewNoRes(), submit, "scheduler fixed picked pool 99 for job 1"},
		{"scheduler/negative", fixedPool(-1), core.NewNoRes(), submit, "scheduler fixed picked pool -1 for job 1"},
		{"selector/site without eligible pool", sched.NewFederated(fixedSite(2)), core.NewNoRes(), submit,
			"scheduler fed(fixed-site+rr) picked pool -1 for job 1"},
		{"selector/out of range", sched.NewFederated(fixedSite(9)), core.NewNoRes(), submit,
			"scheduler fed(fixed-site+rr) picked pool -1 for job 1"},
		{"policy/suspend ineligible", sched.NewRoundRobin(), fixedMove{pool: 2}, preempt,
			"policy fixed-move picked pool 2 for job 1, not one of its eligible pools [0]"},
		{"policy/suspend out of range", sched.NewRoundRobin(), fixedMove{pool: 99}, preempt,
			"policy fixed-move picked pool 99 for job 1"},
		{"policy/wait ineligible", sched.NewRoundRobin(), fixedMove{pool: 2, th: 5}, wait,
			"policy fixed-move picked pool 2 for job 2"},
		{"policy/wait out of range", sched.NewRoundRobin(), fixedMove{pool: 99, th: 5}, wait,
			"policy fixed-move picked pool 99 for job 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Platform: plat, Initial: tc.initial, Policy: tc.policy}, tc.specs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
