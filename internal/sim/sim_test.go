package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// miniPlatform builds pools of identical 1-core machines:
// counts[i] machines in pool i.
func miniPlatform(t *testing.T, counts ...int) *cluster.Platform {
	t.Helper()
	configs := make([]cluster.PoolConfig, len(counts))
	for i, n := range counts {
		configs[i] = cluster.PoolConfig{
			Classes: []cluster.MachineClass{
				{Count: n, Cores: 1, MemMB: 8192, Speed: 1.0},
			},
		}
	}
	p, err := cluster.Build(configs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func lowJob(id job.ID, submit, work float64, cands ...int) job.Spec {
	return job.Spec{
		ID: id, Submit: submit, Work: work, Cores: 1, MemMB: 1024,
		Priority: job.PriorityLow, Candidates: cands,
	}
}

func highJob(id job.ID, submit, work float64, cands ...int) job.Spec {
	s := lowJob(id, submit, work, cands...)
	s.Priority = job.PriorityHigh
	return s
}

func run(t *testing.T, cfg Config, specs []job.Spec) *Result {
	t.Helper()
	res, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseConfig(p *cluster.Platform) Config {
	return Config{
		Platform: p,
		Initial:  sched.NewRoundRobin(),
		Policy:   core.NewNoRes(),
	}
}

func TestSingleJobRunsImmediately(t *testing.T) {
	p := miniPlatform(t, 2)
	res := run(t, baseConfig(p), []job.Spec{lowJob(1, 10, 50, 0)})
	j := res.Jobs[0]
	if got := j.CompletionTime(); got != 50 {
		t.Fatalf("completion time = %v, want 50", got)
	}
	a := j.Acct()
	if a.Wait != 0 || a.Suspend != 0 || a.Exec != 50 {
		t.Fatalf("accounting = %+v", a)
	}
	if res.Makespan != 60 {
		t.Fatalf("makespan = %v, want 60", res.Makespan)
	}
}

func TestQueueingOnBusyPool(t *testing.T) {
	p := miniPlatform(t, 1) // single core
	specs := []job.Spec{
		lowJob(1, 0, 100, 0),
		lowJob(2, 10, 50, 0),
	}
	res := run(t, baseConfig(p), specs)
	j2 := res.Jobs[1]
	// Job 2 waits until t=100, runs 50, completes at 150.
	if got := j2.Acct().Wait; got != 90 {
		t.Fatalf("wait = %v, want 90", got)
	}
	if got := j2.CompletionTime(); got != 140 {
		t.Fatalf("completion = %v, want 140", got)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	p := miniPlatform(t, 1)
	specs := []job.Spec{
		lowJob(1, 0, 100, 0),
		lowJob(2, 10, 10, 0),
		lowJob(3, 20, 10, 0),
	}
	res := run(t, baseConfig(p), specs)
	if !(res.Jobs[1].Completed < res.Jobs[2].Completed) {
		t.Fatal("FIFO violated within priority class")
	}
}

func TestPreemptionSuspendsLowPriority(t *testing.T) {
	p := miniPlatform(t, 1)
	specs := []job.Spec{
		lowJob(1, 0, 100, 0),
		highJob(2, 30, 50, 0),
	}
	res := run(t, baseConfig(p), specs)
	low, high := res.Jobs[0], res.Jobs[1]
	// High runs immediately by preempting low.
	if got := high.Acct().Wait; got != 0 {
		t.Fatalf("high prio waited %v", got)
	}
	if got := high.CompletionTime(); got != 50 {
		t.Fatalf("high completion = %v", got)
	}
	// Low: ran 30, suspended 50 (while high runs), resumes, 70 left.
	if !low.EverSuspended() {
		t.Fatal("low job was not suspended")
	}
	a := low.Acct()
	if a.Suspensions != 1 || math.Abs(a.Suspend-50) > 1e-9 {
		t.Fatalf("low accounting = %+v", a)
	}
	if got := low.CompletionTime(); math.Abs(got-150) > 1e-9 {
		t.Fatalf("low completion = %v, want 150", got)
	}
	if res.Preemptions != 1 {
		t.Fatalf("preemptions = %d", res.Preemptions)
	}
}

func TestHighPriorityQueuesWhenAllHigh(t *testing.T) {
	p := miniPlatform(t, 1)
	specs := []job.Spec{
		highJob(1, 0, 100, 0),
		highJob(2, 10, 10, 0), // cannot preempt an equal-priority job
	}
	res := run(t, baseConfig(p), specs)
	if res.Preemptions != 0 {
		t.Fatal("equal priority must not preempt")
	}
	if got := res.Jobs[1].Acct().Wait; got != 90 {
		t.Fatalf("second high wait = %v, want 90", got)
	}
}

func TestVictimIsMostRecentLowestPriority(t *testing.T) {
	p := miniPlatform(t, 2)
	specs := []job.Spec{
		lowJob(1, 0, 200, 0),  // starts on machine 0
		lowJob(2, 10, 200, 0), // starts on machine 1 (most recent)
		highJob(3, 20, 10, 0),
	}
	res := run(t, baseConfig(p), specs)
	j1, j2 := res.Jobs[0], res.Jobs[1]
	if j1.EverSuspended() {
		t.Fatal("older job preempted; victim should be most recently started")
	}
	if !j2.EverSuspended() {
		t.Fatal("most recent low job was not the victim")
	}
}

func TestSuspendedResumesBeforeWaitingLow(t *testing.T) {
	p := miniPlatform(t, 1)
	specs := []job.Spec{
		lowJob(1, 0, 100, 0),
		highJob(2, 10, 50, 0), // preempts job 1
		lowJob(3, 20, 10, 0),  // queues
	}
	res := run(t, baseConfig(p), specs)
	j1, j3 := res.Jobs[0], res.Jobs[2]
	// When high finishes at 60, suspended job 1 resumes (90 left),
	// completing at 150; job 3 runs after, completing 160.
	if math.Abs(j1.Completed-150) > 1e-9 {
		t.Fatalf("suspended job completed at %v, want 150", j1.Completed)
	}
	if math.Abs(j3.Completed-160) > 1e-9 {
		t.Fatalf("waiting job completed at %v, want 160", j3.Completed)
	}
}

func TestHostLevelResumeBeatsWaitingHigh(t *testing.T) {
	p := miniPlatform(t, 1)
	specs := []job.Spec{
		lowJob(1, 0, 100, 0),
		highJob(2, 10, 50, 0), // preempts job 1
		highJob(3, 20, 10, 0), // queues (can't preempt high)
	}
	res := run(t, baseConfig(p), specs)
	j1, j3 := res.Jobs[0], res.Jobs[2]
	// Default host-level semantics: when job 2 finishes at t=60, the
	// suspended job resumes on its host (90 left, completing at 150)...
	if math.Abs(j1.Completed-150) > 1e-9 {
		t.Fatalf("low job completed at %v, want 150", j1.Completed)
	}
	// ...and the queued high job waits for it: 150+10 = 160.
	if math.Abs(j3.Completed-160) > 1e-9 {
		t.Fatalf("high job completed at %v, want 160", j3.Completed)
	}
}

func TestResSusUtilMovesSuspendedJob(t *testing.T) {
	p := miniPlatform(t, 1, 1) // two pools, one core each; pool 1 idle
	cfg := baseConfig(p)
	cfg.Policy = core.NewResSusUtil()
	specs := []job.Spec{
		lowJob(1, 0, 100, 0, 1),
		highJob(2, 30, 500, 0), // long preemptor pinned to pool 0
	}
	res := run(t, cfg, specs)
	j1 := res.Jobs[0]
	// Suspended at 30 (30 executed, wasted); the decision sweep fires
	// at 31, restarting it at idle pool 1 for a full 100 re-run.
	if !j1.EverSuspended() {
		t.Fatal("job 1 was not suspended")
	}
	a := j1.Acct()
	if a.Restarts != 1 {
		t.Fatalf("restarts = %d", a.Restarts)
	}
	if math.Abs(a.WastedExec-30) > 1e-9 {
		t.Fatalf("wasted exec = %v, want 30", a.WastedExec)
	}
	if math.Abs(j1.Completed-131) > 1e-9 {
		t.Fatalf("completion = %v, want 131", j1.Completed)
	}
	if math.Abs(a.Suspend-1) > 1e-9 {
		t.Fatalf("suspend = %v, want the 1-minute decision sweep", a.Suspend)
	}
	if res.Restarts != 1 {
		t.Fatalf("res.Restarts = %d", res.Restarts)
	}
	if j1.Pool != 1 {
		t.Fatalf("final pool = %d, want 1", j1.Pool)
	}
}

func TestResSusUtilRetainsWhenAlternatesBusy(t *testing.T) {
	p := miniPlatform(t, 1, 1)
	cfg := baseConfig(p)
	cfg.Policy = core.NewResSusUtil()
	specs := []job.Spec{
		lowJob(1, 0, 1000, 1),   // fills pool 1 fully (util 1.0)
		lowJob(2, 1, 100, 0, 1), // runs in pool 0
		highJob(3, 30, 50, 0),   // preempts job 2 in pool 0
	}
	res := run(t, cfg, specs)
	j2 := res.Jobs[1]
	// Pool 1 util = 1.0 > pool 0's; job stays suspended and resumes.
	if j2.Acct().Restarts != 0 {
		t.Fatal("job moved despite alternate being fully utilized")
	}
	if math.Abs(j2.Acct().Suspend-50) > 1e-9 {
		t.Fatalf("suspend = %v, want 50", j2.Acct().Suspend)
	}
}

func TestWaitReschedulingMovesStalledJob(t *testing.T) {
	p := miniPlatform(t, 1, 1)
	cfg := baseConfig(p)
	cfg.Policy = core.NewResSusWaitUtil() // 30-minute threshold
	specs := []job.Spec{
		highJob(1, 0, 500, 0),  // occupies pool 0 (high: unpreemptable)
		lowJob(2, 0, 50, 0, 1), // RR sends it to pool 0; stalls
	}
	// Force initial selection to pool 0 via candidates order + pure RR.
	cfg.Initial = sched.NewPureRoundRobin()
	res := run(t, cfg, specs)
	j2 := res.Jobs[1]
	if j2.Acct().WaitReschedules == 0 {
		t.Fatal("stalled job was never rescheduled")
	}
	// Moves at t=30 to idle pool 1, runs 50: completes at 80.
	if math.Abs(j2.Completed-80) > 1e-9 {
		t.Fatalf("completion = %v, want 80", j2.Completed)
	}
	if got := j2.Acct().Wait; math.Abs(got-30) > 1e-9 {
		t.Fatalf("wait = %v, want 30 (the threshold)", got)
	}
	if res.WaitMoves == 0 {
		t.Fatal("res.WaitMoves = 0")
	}
}

func TestWaitTimerRearmsWhenStaying(t *testing.T) {
	p := miniPlatform(t, 1)
	cfg := baseConfig(p)
	cfg.Policy = core.NewResSusWaitUtil()
	specs := []job.Spec{
		highJob(1, 0, 100, 0),
		lowJob(2, 0, 10, 0), // single candidate: nowhere to go
	}
	res := run(t, cfg, specs)
	j2 := res.Jobs[1]
	if j2.Acct().WaitReschedules != 0 {
		t.Fatal("job moved with no alternate pool")
	}
	if math.Abs(j2.Completed-110) > 1e-9 {
		t.Fatalf("completion = %v, want 110", j2.Completed)
	}
}

func TestRescheduleOverheadCharged(t *testing.T) {
	p := miniPlatform(t, 1, 1)
	cfg := baseConfig(p)
	cfg.Policy = core.NewResSusUtil()
	cfg.RescheduleOverhead = 12
	specs := []job.Spec{
		lowJob(1, 0, 100, 0, 1),
		highJob(2, 30, 500, 0),
	}
	res := run(t, cfg, specs)
	a := res.Jobs[0].Acct()
	if math.Abs(a.RescheduleOverhead-12) > 1e-9 {
		t.Fatalf("overhead = %v, want 12", a.RescheduleOverhead)
	}
	// 30 run + 1 sweep + 12 transfer + 100 rerun = completes at 143.
	if math.Abs(res.Jobs[0].Completed-143) > 1e-9 {
		t.Fatalf("completion = %v, want 143", res.Jobs[0].Completed)
	}
}

func TestMigrationPreservesProgress(t *testing.T) {
	p := miniPlatform(t, 1, 1)
	cfg := baseConfig(p)
	cfg.Policy = core.NewResSusMigrate(5)
	specs := []job.Spec{
		lowJob(1, 0, 100, 0, 1),
		highJob(2, 30, 500, 0),
	}
	res := run(t, cfg, specs)
	j1 := res.Jobs[0]
	a := j1.Acct()
	if a.WastedExec != 0 {
		t.Fatalf("migration destroyed progress: %+v", a)
	}
	if math.Abs(a.RescheduleOverhead-5) > 1e-9 {
		t.Fatalf("migration overhead = %v, want 5", a.RescheduleOverhead)
	}
	// 30 run + 1 sweep + 5 migrate + 70 remaining = completes at 106.
	if math.Abs(j1.Completed-106) > 1e-9 {
		t.Fatalf("completion = %v, want 106", j1.Completed)
	}
	if res.Migrations != 1 || res.Restarts != 0 {
		t.Fatalf("migrations=%d restarts=%d", res.Migrations, res.Restarts)
	}
}

func TestSpeedScaling(t *testing.T) {
	plat, err := cluster.Build([]cluster.PoolConfig{{
		Classes: []cluster.MachineClass{{Count: 1, Cores: 1, MemMB: 4096, Speed: 2.0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, baseConfig(plat), []job.Spec{lowJob(1, 0, 100, 0)})
	if got := res.Jobs[0].CompletionTime(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("completion on 2x machine = %v, want 50", got)
	}
}

func TestMemoryConstraintDelaysJob(t *testing.T) {
	plat, err := cluster.Build([]cluster.PoolConfig{{
		Classes: []cluster.MachineClass{
			{Count: 1, Cores: 4, MemMB: 4096, Speed: 1.0},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	specs := []job.Spec{
		{ID: 1, Submit: 0, Work: 100, Cores: 1, MemMB: 3000, Priority: job.PriorityLow, Candidates: []int{0}},
		{ID: 2, Submit: 10, Work: 50, Cores: 1, MemMB: 3000, Priority: job.PriorityLow, Candidates: []int{0}},
	}
	res := run(t, baseConfig(plat), specs)
	// Machine has 4 cores but only 4 GB: job 2 must wait for memory.
	j2 := res.Jobs[1]
	if got := j2.Acct().Wait; got != 90 {
		t.Fatalf("wait = %v, want 90 (memory-bound)", got)
	}
}

func TestOSConstraint(t *testing.T) {
	plat, err := cluster.Build([]cluster.PoolConfig{
		{Classes: []cluster.MachineClass{{Count: 1, Cores: 1, MemMB: 4096, Speed: 1.0, OS: "windows"}}},
		{Classes: []cluster.MachineClass{{Count: 1, Cores: 1, MemMB: 4096, Speed: 1.0, OS: "linux"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := lowJob(1, 0, 50, 0, 1)
	spec.OS = "linux"
	res := run(t, baseConfig(plat), []job.Spec{spec})
	if got := res.Jobs[0].Pool; got != 1 {
		t.Fatalf("job landed in pool %d, want linux pool 1", got)
	}
	if got := res.Jobs[0].Acct().Wait; got != 0 {
		t.Fatalf("wait = %v (should skip ineligible pool statically)", got)
	}
}

func TestMultiCoreJob(t *testing.T) {
	plat, err := cluster.Build([]cluster.PoolConfig{{
		Classes: []cluster.MachineClass{{Count: 1, Cores: 4, MemMB: 8192, Speed: 1.0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	specs := []job.Spec{
		{ID: 1, Submit: 0, Work: 100, Cores: 3, MemMB: 1024, Priority: job.PriorityLow, Candidates: []int{0}},
		{ID: 2, Submit: 0, Work: 100, Cores: 2, MemMB: 1024, Priority: job.PriorityLow, Candidates: []int{0}},
	}
	res := run(t, baseConfig(plat), specs)
	// Only 4 cores: 3-core and 2-core jobs cannot overlap.
	j2 := res.Jobs[1]
	if got := j2.Acct().Wait; got != 100 {
		t.Fatalf("wait = %v, want 100", got)
	}
}

func TestDeterminism(t *testing.T) {
	p := miniPlatform(t, 2, 2, 2)
	mkSpecs := func() []job.Spec {
		var specs []job.Spec
		for i := 0; i < 60; i++ {
			s := lowJob(job.ID(i+1), float64(i), 25+float64(i%7)*10, 0, 1, 2)
			if i%5 == 0 {
				s.Priority = job.PriorityHigh
				s.Candidates = []int{0, 1}
			}
			specs = append(specs, s)
		}
		return specs
	}
	mkCfg := func() Config {
		cfg := baseConfig(p)
		cfg.Policy = core.NewResSusWaitRand(77)
		return cfg
	}
	a := run(t, mkCfg(), mkSpecs())
	b := run(t, mkCfg(), mkSpecs())
	for i := range a.Jobs {
		if a.Jobs[i].Completed != b.Jobs[i].Completed {
			t.Fatalf("job %d completion differs: %v vs %v", i, a.Jobs[i].Completed, b.Jobs[i].Completed)
		}
	}
	if a.Preemptions != b.Preemptions || a.Restarts != b.Restarts || a.WaitMoves != b.WaitMoves {
		t.Fatal("run counters differ across identical runs")
	}
}

func TestSamplingSeries(t *testing.T) {
	p := miniPlatform(t, 1)
	cfg := baseConfig(p)
	cfg.SeriesBin = 10
	res := run(t, cfg, []job.Spec{lowJob(1, 0, 100, 0)})
	if res.Util.Len() == 0 {
		t.Fatal("no utilization samples")
	}
	// Single 1-core machine fully busy: near-100% bins while running.
	if got := res.Util.Points()[5].Y; math.Abs(got-100) > 1e-9 {
		t.Fatalf("mid-run utilization = %v, want 100", got)
	}
}

func TestDisableSampling(t *testing.T) {
	p := miniPlatform(t, 1)
	cfg := baseConfig(p)
	cfg.DisableSampling = true
	res := run(t, cfg, []job.Spec{lowJob(1, 0, 100, 0)})
	if res.Util.Len() != 0 {
		t.Fatal("sampling happened despite DisableSampling")
	}
}

// TestConfigErrors pins Config validation: every rejection — a missing
// field, a negative or non-finite parameter, an inconsistent
// combination — wraps ErrInvalidConfig. Each case runs
// under a deadline: an unchecked +Inf staleness spins the stale-view
// refresh loop forever inside one event, so a regression fails here
// instead of hanging the suite.
func TestConfigErrors(t *testing.T) {
	p := miniPlatform(t, 1)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(*Config)
		want string // substring the error must contain, if any
	}{
		{name: "noPlatform", set: func(c *Config) { c.Platform = nil }},
		{name: "noInitial", set: func(c *Config) { c.Initial = nil }},
		{name: "noPolicy", set: func(c *Config) { c.Policy = nil }},
		{name: "negOverhead", set: func(c *Config) { c.RescheduleOverhead = -1 }},
		{name: "negSampleEvery", set: func(c *Config) { c.SampleEvery = -1 }, want: "negative sample period"},
		{name: "negSeriesBin", set: func(c *Config) { c.SeriesBin = -100 }, want: "negative series bin"},
		{name: "negMaxTime", set: func(c *Config) { c.MaxTime = -1 }, want: "negative max time"},
		{name: "stalenessNoSampling", set: func(c *Config) {
			c.UtilStaleness = 5
			c.DisableSampling = true
		}},
		{name: "SampleEvery NaN", set: func(c *Config) { c.SampleEvery = nan }},
		{name: "SampleEvery +Inf", set: func(c *Config) { c.SampleEvery = inf }},
		{name: "SeriesBin NaN", set: func(c *Config) { c.SeriesBin = nan }},
		{name: "RescheduleOverhead +Inf", set: func(c *Config) { c.RescheduleOverhead = inf }},
		{name: "UtilStaleness +Inf", set: func(c *Config) { c.UtilStaleness = inf }},
		{name: "UtilStaleness NaN", set: func(c *Config) { c.UtilStaleness = nan }},
		{name: "DecisionDelay NaN", set: func(c *Config) { c.DecisionDelay = nan }},
		{name: "DecisionDelay +Inf", set: func(c *Config) { c.DecisionDelay = inf }},
		{name: "MaxTime NaN", set: func(c *Config) { c.MaxTime = nan }},
		{name: "MaxTime +Inf", set: func(c *Config) { c.MaxTime = inf }},
		{name: "CheckpointEvery +Inf", set: func(c *Config) {
			c.CheckpointEvery = inf
			c.CheckpointSink = func(Checkpoint) error { return nil }
		}},
		{name: "Faults.MTBF NaN", set: func(c *Config) { c.Faults = FaultConfig{MTBF: nan, MTTR: 5} }},
		{name: "Faults.MTTR +Inf", set: func(c *Config) { c.Faults = FaultConfig{MTBF: 100, MTTR: inf} }},
		{name: "Faults.MaintPeriod +Inf", set: func(c *Config) {
			c.Faults = FaultConfig{MaintPeriod: inf, MaintDuration: 10}
		}},
		{name: "Faults.MaintDuration NaN", set: func(c *Config) {
			c.Faults = FaultConfig{MaintPeriod: 100, MaintDuration: nan}
		}},
		{name: "Faults.MaintFraction -Inf", set: func(c *Config) {
			c.Faults = FaultConfig{MaintPeriod: 100, MaintDuration: 10, MaintFraction: -inf}
		}},
		{name: "Faults.MaintFraction NaN", set: func(c *Config) {
			c.Faults = FaultConfig{MaintPeriod: 100, MaintDuration: 10, MaintFraction: nan}
		}},
		{name: "Faults.MaintFraction +Inf", set: func(c *Config) {
			c.Faults = FaultConfig{MaintPeriod: 100, MaintDuration: 10, MaintFraction: inf}
		}},
		{name: "MigrationOverhead NaN", set: func(c *Config) { c.Policy = core.NewResSusMigrate(nan) }, want: "migration overhead"},
		{name: "MigrationOverhead +Inf", set: func(c *Config) { c.Policy = core.NewResSusMigrate(inf) }, want: "migration overhead"},
		{name: "MigrationOverhead negative", set: func(c *Config) { c.Policy = core.NewResSusMigrate(-5) }, want: "migration overhead"},
		{name: "WaitThreshold NaN", set: func(c *Config) { c.Policy = core.ResSusWaitUtil{Threshold: nan} }, want: "wait threshold"},
		{name: "WaitThreshold +Inf", set: func(c *Config) { c.Policy = core.ResSusWaitUtil{Threshold: inf} }, want: "wait threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(p)
			tc.set(&cfg)
			done := make(chan error, 1)
			go func() {
				_, err := Run(cfg, []job.Spec{lowJob(1, 0, 10, 0)})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrInvalidConfig) {
					t.Fatalf("got %v, want ErrInvalidConfig", err)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not contain %q", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not return within 10s")
			}
		})
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	p := miniPlatform(t, 1)
	if _, err := Run(baseConfig(p), []job.Spec{{ID: 1}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := Run(baseConfig(p), []job.Spec{lowJob(1, 0, 10, 7)}); err == nil ||
		!strings.Contains(err.Error(), "beyond platform") {
		t.Fatalf("out-of-range pool accepted: %v", err)
	}
	// Victim stacks are indexed by priority, so a priority past the
	// simulator's levels fails before any is allocated.
	top := lowJob(1, 0, 10, 0)
	top.Priority = maxPriority
	if _, err := Run(baseConfig(p), []job.Spec{top}); err != nil {
		t.Fatalf("priority %d rejected: %v", maxPriority, err)
	}
	top.Priority = 1 << 40
	if _, err := Run(baseConfig(p), []job.Spec{top}); err == nil ||
		!strings.Contains(err.Error(), "above the simulator's") {
		t.Fatalf("priority 2^40 accepted: %v", err)
	}
}

// selectSpy counts an initial scheduler's picks: the loop makes one for
// every submission it dispatches.
type selectSpy struct {
	sched.InitialScheduler
	picks *int
}

func (s selectSpy) SelectPool(spec *job.Spec, eligible []int, view sched.PoolView) int {
	*s.picks++
	return s.InitialScheduler.SelectPool(spec, eligible, view)
}

// TestNonFiniteSpecRejected: a NaN or infinite submit time or work
// fails Run before the loop dispatches an event. Unchecked, a NaN job
// completed at NaN without an error and an infinite one ran on until
// MaxTime.
func TestNonFiniteSpecRejected(t *testing.T) {
	p := miniPlatform(t, 2)
	specs := func() []job.Spec {
		return []job.Spec{lowJob(1, 0, 10, 0), lowJob(2, 5, 20, 0), lowJob(3, 9, 30, 0)}
	}
	run := func(specs []job.Spec) (*Result, int, error) {
		picks := 0
		cfg := baseConfig(p)
		cfg.Initial = selectSpy{cfg.Initial, &picks}
		res, err := Run(cfg, specs)
		return res, picks, err
	}
	if _, picks, err := run(specs()); err != nil || picks != 3 {
		t.Fatalf("finite trace: err %v after %d submissions, want 3", err, picks)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		set  func(*job.Spec)
		want string
	}{
		{"nanSubmit", func(s *job.Spec) { s.Submit = nan }, "non-finite submit time NaN"},
		{"infSubmit", func(s *job.Spec) { s.Submit = inf }, "non-finite submit time +Inf"},
		{"nanWork", func(s *job.Spec) { s.Work = nan }, "non-finite work NaN"},
		{"infWork", func(s *job.Spec) { s.Work = inf }, "non-finite work +Inf"},
		{"negInfWork", func(s *job.Spec) { s.Work = -inf }, "non-finite work -Inf"},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := specs()
			c.set(&in[1])
			res, picks, err := run(in)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			if res != nil || picks != 0 {
				t.Fatalf("Run returned %v after %d submissions, want nil after none", res, picks)
			}
		})
	}
}

func TestNoEligiblePoolError(t *testing.T) {
	p := miniPlatform(t, 1, 1)
	specs := []job.Spec{lowJob(1, 0, 10, 0, 1), lowJob(2, 1, 10, 0, 1)}
	specs[1].MemMB = 1 << 30 // fits nowhere
	_, err := Run(baseConfig(p), specs)
	if err == nil || !strings.Contains(err.Error(), "job 2 has no eligible candidate pool [0 1]") {
		t.Fatalf("err = %v, want job 2 named as having no eligible pool", err)
	}
}

func TestStaleUtilizationView(t *testing.T) {
	// With a very stale view, ResSusUtil sees pool 1 as idle even after
	// it fills, so it still moves the job there.
	p := miniPlatform(t, 1, 1)
	cfg := baseConfig(p)
	cfg.Policy = core.NewResSusUtil()
	cfg.UtilStaleness = 10000
	specs := []job.Spec{
		lowJob(1, 0, 1, 0),    // triggers the t=0 snapshot epoch
		lowJob(2, 5, 1000, 1), // fills pool 1 after the snapshot
		lowJob(3, 6, 100, 0, 1),
		highJob(4, 30, 500, 0),
	}
	res := run(t, cfg, specs)
	j2 := res.Jobs[2]
	// Live view would retain (pool 1 busy); stale view moves it into
	// pool 1's queue where it waits behind the 1000-minute job.
	if j2.Acct().Restarts != 1 {
		t.Fatalf("restarts = %d; stale view should have moved the job", j2.Acct().Restarts)
	}
	if j2.Pool != 1 {
		t.Fatalf("moved to pool %d, want stale-believed-idle pool 1", j2.Pool)
	}
}

func TestManyJobsConservationAndCompletion(t *testing.T) {
	p := miniPlatform(t, 3, 3, 3, 3)
	var specs []job.Spec
	for i := 0; i < 500; i++ {
		s := lowJob(job.ID(i+1), float64(i)*2, 20+float64(i%13)*15, 0, 1, 2, 3)
		if i%7 == 0 {
			s.Priority = job.PriorityHigh
			s.Candidates = []int{0, 1}
		}
		specs = append(specs, s)
	}
	cfg := baseConfig(p)
	cfg.Policy = core.NewResSusWaitUtil()
	res := run(t, cfg, specs) // every completion checks conservation
	if len(res.Jobs) != 500 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.State() != job.StateCompleted {
			t.Fatalf("job %d not completed", j.Spec.ID)
		}
	}
}

func TestSamplingTickGridExact(t *testing.T) {
	// One job, submit 0, work 100 on a single core: the sampler must
	// record exactly the ticks 0..99 (the tick at the makespan itself is
	// never recorded, exactly like the event-driven sampler whose chain
	// died with the final completion), all at 100% utilization.
	p := miniPlatform(t, 1)
	cfg := baseConfig(p)
	cfg.SeriesBin = 10
	res := run(t, cfg, []job.Spec{lowJob(1, 0, 100, 0)})
	if got := res.Util.Len(); got != 10 {
		t.Fatalf("util bins = %d, want 10 (ticks 0..99 only)", got)
	}
	for i, pt := range res.Util.Points() {
		if math.Abs(pt.Y-100) > 1e-9 {
			t.Fatalf("bin %d utilization = %v, want 100", i, pt.Y)
		}
	}
}

func TestSamplingPreemptionTimeline(t *testing.T) {
	// Preemption scenario with hand-computable signals: low job (work
	// 100) from t=0, high job (work 50) preempts at t=30, finishes at 80,
	// low resumes and completes at 150. Suspended count is 1 exactly on
	// ticks 30..79; a tick coinciding with a state change reads the
	// post-change state.
	p := miniPlatform(t, 1)
	cfg := baseConfig(p)
	cfg.SeriesBin = 10
	res := run(t, cfg, []job.Spec{
		lowJob(1, 0, 100, 0),
		highJob(2, 30, 50, 0),
	})
	susp := res.Suspended.Points()
	if len(susp) != 15 {
		t.Fatalf("suspended bins = %d, want 15 (ticks 0..149)", len(susp))
	}
	for i, pt := range susp {
		want := 0.0
		if i >= 3 && i < 8 { // bins covering ticks 30..79
			want = 1.0
		}
		if math.Abs(pt.Y-want) > 1e-9 {
			t.Fatalf("suspended bin %d = %v, want %v", i, pt.Y, want)
		}
	}
	// The single core is always busy (victim swaps with preemptor).
	for i, pt := range res.Util.Points() {
		if math.Abs(pt.Y-100) > 1e-9 {
			t.Fatalf("util bin %d = %v, want 100", i, pt.Y)
		}
	}
}

func TestSamplingIdleGap(t *testing.T) {
	// A long idle gap between two jobs must still emit zero-valued ticks
	// for every minute of the gap (the event-driven chain ticked through
	// idle time too).
	p := miniPlatform(t, 1)
	cfg := baseConfig(p)
	cfg.SeriesBin = 10
	res := run(t, cfg, []job.Spec{
		lowJob(1, 0, 5, 0),
		lowJob(2, 200, 10, 0),
	})
	// Ticks 0..209: 21 bins.
	if got := res.Util.Len(); got != 21 {
		t.Fatalf("util bins = %d, want 21", got)
	}
	pts := res.Util.Points()
	for i := 1; i < 20; i++ {
		if pts[i].Y != 0 {
			t.Fatalf("idle bin %d utilization = %v, want 0", i, pts[i].Y)
		}
	}
	if pts[0].Y != 50 { // ticks 0..4 busy, 5..9 idle
		t.Fatalf("first bin = %v, want 50", pts[0].Y)
	}
	if pts[20].Y != 100 { // ticks 200..209 busy
		t.Fatalf("last bin = %v, want 100", pts[20].Y)
	}
}

func TestContextCancellation(t *testing.T) {
	p := miniPlatform(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := baseConfig(p)
	cfg.Context = ctx
	// Enough work to guarantee the engine crosses a poll boundary.
	var specs []job.Spec
	for i := 0; i < 2000; i++ {
		specs = append(specs, lowJob(job.ID(i+1), float64(i), 5, 0))
	}
	_, err := Run(cfg, specs)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressFiresOnTheStride: Progress reports the frontier and the
// events dispatched so far on every 256th event, and the event-queue
// high-water marks sampled on that stride reach the Result.
func TestProgressFiresOnTheStride(t *testing.T) {
	p := miniPlatform(t, 1)
	var specs []job.Spec
	for i := 0; i < 2000; i++ {
		specs = append(specs, lowJob(job.ID(i+1), float64(i), 5, 0))
	}
	cfg := baseConfig(p)
	var calls int64
	lastT := math.Inf(-1)
	cfg.Progress = func(simTime float64, events int64) {
		calls++
		if events != 256*calls || simTime < lastT {
			t.Errorf("call %d: Progress(%v, %d) after frontier %v", calls, simTime, events, lastT)
		}
		lastT = simTime
	}
	res := run(t, cfg, specs)
	if calls == 0 || calls != res.Events/256 {
		t.Errorf("Progress fired %d times over %d events, want %d", calls, res.Events, res.Events/256)
	}
	if res.QueueDepthMax < 1 {
		t.Errorf("QueueDepthMax = %d, want at least 1 pending event", res.QueueDepthMax)
	}
}

func TestNilContextRuns(t *testing.T) {
	p := miniPlatform(t, 1)
	res := run(t, baseConfig(p), []job.Spec{lowJob(1, 0, 10, 0)})
	if res.Makespan != 10 {
		t.Fatalf("makespan = %v", res.Makespan)
	}
}
