package sim

// Unit and property tests for the fault & maintenance subsystem:
// deterministic maintenance-window semantics under both victim
// policies, crash kill/requeue mechanics, and zero-config byte
// identity. Random federations with faults run in FuzzFederationRun.

import (
	"math"
	"math/rand/v2"
	"testing"

	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// maintOnly returns a FaultConfig with deterministic maintenance
// windows and no crashes. On a single-site platform the first window
// opens at start + period/2.
func maintOnly(period, duration, fraction float64, victim string) FaultConfig {
	return FaultConfig{
		MaintPeriod:   period,
		MaintDuration: duration,
		MaintFraction: fraction,
		Victim:        victim,
	}
}

func TestMaintenanceDrainLetsRunningJobsFinish(t *testing.T) {
	p := miniPlatform(t, 2) // one pool, two 1-core machines
	// Windows every 100 min, 40 long, all machines: down over [50,90],
	// [150,190], ... Job 1 runs straight through under drain; job 2
	// arrives mid-window and must wait for the window end.
	cfg := baseConfig(p)
	cfg.Faults = maintOnly(100, 40, 1.0, VictimDrain)
	specs := []job.Spec{
		lowJob(1, 0, 200, 0),
		lowJob(2, 60, 10, 0),
	}
	res := run(t, cfg, specs)
	if got := res.Jobs[0].Completed; got != 200 {
		t.Errorf("drained job completed at %v, want 200", got)
	}
	if got := res.Jobs[1].Completed; got != 100 {
		t.Errorf("window-blocked job completed at %v, want 100 (start at window end 90)", got)
	}
	if res.Kills != 0 || res.Requeues != 0 || res.WorkLost != 0 {
		t.Errorf("drain killed jobs: kills=%d requeues=%d workLost=%v",
			res.Kills, res.Requeues, res.WorkLost)
	}
	if res.MaintWindows != 2 {
		t.Errorf("MaintWindows = %d, want 2 (starts 50 and 150, makespan 200)", res.MaintWindows)
	}
	// Two machines down for two full 40-minute windows.
	if res.DownCoreMinutes != 160 {
		t.Errorf("DownCoreMinutes = %v, want 160", res.DownCoreMinutes)
	}
	if res.Crashes != 0 {
		t.Errorf("Crashes = %d, want 0", res.Crashes)
	}
}

func TestMaintenanceRequeueKillsAndRestarts(t *testing.T) {
	p := miniPlatform(t, 2)
	cfg := baseConfig(p)
	cfg.Faults = maintOnly(100, 40, 1.0, VictimRequeue)
	// Job 1 anchors the window grid at t=0 (windows over [50,90],
	// [150,190], ...) and finishes before the first window. Job 2 starts
	// at 40, is killed by the window at 50 (10 minutes of progress
	// lost), requeues against a fully-down pool, restarts at the window
	// end 90 and finishes at 120.
	specs := []job.Spec{
		lowJob(1, 0, 5, 0),
		lowJob(2, 40, 30, 0),
	}
	res := run(t, cfg, specs)
	j := res.Jobs[1]
	if j.Completed != 120 {
		t.Fatalf("killed job completed at %v, want 120", j.Completed)
	}
	a := j.Acct()
	if a.Kills != 1 || a.WastedExec != 10 || a.Wait != 40 || a.Exec != 40 {
		t.Errorf("accounting = %+v, want kills=1 wastedExec=10 wait=40 exec=40", a)
	}
	if res.Kills != 1 || res.Requeues != 1 || res.WorkLost != 10 {
		t.Errorf("counters: kills=%d requeues=%d workLost=%v, want 1/1/10",
			res.Kills, res.Requeues, res.WorkLost)
	}
}

// tieWindows is a maintenance regime whose every window end rounds
// onto the next window's start: period 1, duration just below 1, one
// machine of four per window, drained.
func tieWindows() FaultConfig {
	return maintOnly(1, math.Nextafter(1, 0), 0.25, VictimDrain)
}

// TestMaintWindowEndTiesNextStart runs windows whose end ties the next
// start. The start fires first, so two blocks are open at once and the
// end must close the older one. The pinned values are the ones the
// block-in-payload encoding gave; closing the newer block instead
// gives 48 down-core minutes and 110 events.
func TestMaintWindowEndTiesNextStart(t *testing.T) {
	cfg := baseConfig(miniPlatform(t, 4))
	cfg.Faults = tieWindows()
	res := run(t, cfg, []job.Spec{lowJob(1, 0, 60, 0)})
	// The first window opens at start + period/2; starts chain by
	// repeated addition of the period.
	for k, start := 0, 0.5; k < 60; k, start = k+1, start+cfg.Faults.MaintPeriod {
		if end := start + cfg.Faults.MaintDuration; end != start+cfg.Faults.MaintPeriod {
			t.Fatalf("window %d ends at %v, next starts at %v: no tie", k, end, start+cfg.Faults.MaintPeriod)
		}
	}
	if res.MaintWindows != 60 || res.DownCoreMinutes != 59.5 || res.Events != 121 {
		t.Errorf("MaintWindows=%d DownCoreMinutes=%v Events=%d, want 60, 59.5, 121",
			res.MaintWindows, res.DownCoreMinutes, res.Events)
	}
}

// TestMaintResumeWithWindowOpen resumes from every checkpoint taken
// while a maintenance window is open, under both victim policies and
// with tied windows (two blocks open), and demands the straight run.
func TestMaintResumeWithWindowOpen(t *testing.T) {
	var specs []job.Spec
	for i := range 24 {
		specs = append(specs, lowJob(job.ID(i+1), float64(i)*1.75, 2+float64(i%5), 0))
	}
	for _, tc := range []struct {
		name    string
		faults  FaultConfig
		specs   []job.Spec
		maxOpen int
	}{
		{VictimDrain, maintOnly(10, 4, 0.5, VictimDrain), specs, 1},
		{VictimRequeue, maintOnly(10, 4, 0.5, VictimRequeue), specs, 1},
		{"tied " + VictimDrain, tieWindows(), []job.Spec{lowJob(1, 0, 60, 0)}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(miniPlatform(t, 4))
			cfg.Faults = tc.faults
			// fresh matches the config run gives Run, so reencodeSnapshot
			// restores the checkpoints under their own config hash.
			fresh := func() Config {
				c := cfg
				c.Initial = sched.NewRoundRobin()
				return c
			}
			want := fingerprint(run(t, fresh(), tc.specs))
			ckCfg, cks := collectCheckpoints(fresh(), 1)
			run(t, *ckCfg, tc.specs)
			maxOpen := 0
			for _, ck := range *cks {
				open := 0
				reencodeSnapshot(t, fresh(), tc.specs, ck.Data, func(w *world) {
					for _, f := range w.faults {
						open += len(f.open)
					}
				})
				if open == 0 {
					continue
				}
				maxOpen = max(maxOpen, open)
				resumed := fresh()
				resumed.ResumeFrom = ck.Data
				if fp := fingerprint(run(t, resumed, tc.specs)); fp != want {
					t.Fatalf("resume at t=%v with %d blocks open diverged:\n%s", ck.Time, open, firstDiff(want, fp))
				}
			}
			if maxOpen != tc.maxOpen {
				t.Fatalf("at most %d blocks open at a checkpoint, want %d", maxOpen, tc.maxOpen)
			}
		})
	}
}

func TestCrashKillsRequeuesAndRepairs(t *testing.T) {
	// A single 1-core machine with an aggressive crash rate: the
	// 100-minute job is all but guaranteed to be killed at least once,
	// requeued on the same (only) machine after each repair, and must
	// still complete with conservation intact.
	p := miniPlatform(t, 1)
	cfg := baseConfig(p)
	cfg.Faults = FaultConfig{MTBF: 40, MTTR: 10, Seed: 7}
	cfg.MaxTime = 100000
	res := run(t, cfg, []job.Spec{lowJob(1, 0, 100, 0)})
	if res.Crashes == 0 {
		t.Fatal("expected at least one crash before the makespan")
	}
	if res.Kills == 0 || res.Requeues != res.Kills {
		t.Errorf("kills=%d requeues=%d, want kills>0 and equal", res.Kills, res.Requeues)
	}
	a := res.Jobs[0].Acct()
	if int64(a.Kills) != res.Kills {
		t.Errorf("job kills %d != result kills %d", a.Kills, res.Kills)
	}
	if res.WorkLost <= 0 || res.DownCoreMinutes <= 0 {
		t.Errorf("workLost=%v downCoreMinutes=%v, want both positive", res.WorkLost, res.DownCoreMinutes)
	}
}

func TestFaultsZeroConfigByteIdentical(t *testing.T) {
	// A zero FaultConfig must not change anything: no subsystem
	// registration, no RNG, identical fingerprints.
	r := rand.New(rand.NewPCG(11, 13))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(f FaultConfig) Config {
		return Config{
			Platform: plat,
			Initial:  federatedInitial(siteSelectorForIndex(1)),
			Policy:   multiSitePolicyForIndex(1, 3),
			Faults:   f,
		}
	}
	base, err := Run(mk(FaultConfig{}), specs)
	if err != nil {
		t.Fatal(err)
	}
	// Seed and victim alone do not enable the subsystem.
	inert, err := Run(mk(FaultConfig{Seed: 99, Victim: VictimDrain}), specs)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(base) != fingerprint(inert) {
		t.Fatal("inert fault config changed the run")
	}
	if base.Crashes != 0 || base.Kills != 0 || base.DownCoreMinutes != 0 {
		t.Fatalf("fault counters nonzero on fault-free run: %+v", base)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	p := miniPlatform(t, 1)
	specs := []job.Spec{lowJob(1, 0, 10, 0)}
	bad := []FaultConfig{
		{MTBF: 100},                            // crashes need MTTR
		{MTBF: -1, MTTR: 5},                    // negative
		{MaintPeriod: 100},                     // windows need duration
		{MaintPeriod: 100, MaintDuration: 100}, // duration >= period
		{MaintPeriod: 100, MaintDuration: 10, Victim: "x"}, // unknown victim
		{MaintPeriod: 100, MaintDuration: 10, MaintFraction: 1.5},
	}
	for i, f := range bad {
		cfg := baseConfig(p)
		cfg.Faults = f
		if _, err := Run(cfg, specs); err == nil {
			t.Errorf("config %d (%+v) accepted, want error", i, f)
		}
	}
}
