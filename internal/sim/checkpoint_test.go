package sim

// Checkpoint/restore contract tests. The load-bearing invariant is
// bit-identity: a run resumed from a checkpoint taken at any mid-run
// boundary must produce exactly the observables of a never-interrupted
// run — hex-float-exact job records, series, counters and event counts
// — across random federations, both engines, and zero and nonzero
// fault regimes. Checkpointing itself must be a pure read: a run that
// emits checkpoints must match a run that doesn't. Mismatched or
// corrupted snapshots must be rejected before any state is touched.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// checkpointWorkload builds a random federation plus a run config for
// one property-test coordinate, mirroring the fuzz harness's coordinate
// scheme (policy × selector × staleness × fault regime).
func checkpointWorkload(t *testing.T, seed uint64, polPick, selPick, staleness, faultPick, victimPick byte) (Config, []job.Spec, bool) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed^0xc0ffee))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Logf("workload: %v", err)
		return Config{}, nil, false
	}
	cfg := Config{
		Platform:          plat,
		Initial:           federatedInitial(siteSelectorForIndex(int(selPick))),
		Policy:            multiSitePolicyForIndex(int(polPick), seed),
		UtilStaleness:     float64(staleness % 40),
		Faults:            fuzzFaults(seed, faultPick, victimPick),
		CheckConservation: true,
		MaxTime:           50000,
	}
	return cfg, specs, true
}

// freshComponents re-instantiates the stateful scheduler/policy for a
// new run of the same coordinate (per-run state, like the engine
// identity tests do).
func freshComponents(cfg *Config, seed uint64, polPick, selPick byte) {
	cfg.Initial = federatedInitial(siteSelectorForIndex(int(selPick)))
	cfg.Policy = multiSitePolicyForIndex(int(polPick), seed)
}

func collectCheckpoints(cfg Config, every float64) (*Config, *[]Checkpoint) {
	cks := &[]Checkpoint{}
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = func(c Checkpoint) error {
		*cks = append(*cks, c)
		return nil
	}
	return &cfg, cks
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	maxCount := 24
	if testing.Short() {
		maxCount = 8
	}
	cfgQuick := &quick.Config{MaxCount: maxCount}
	err := quick.Check(func(seed uint64, engPick, polPick, selPick, staleness, faultPick, victimPick byte) bool {
		base, specs, ok := checkpointWorkload(t, seed, polPick, selPick, staleness, faultPick, victimPick)
		if !ok {
			return true
		}
		if engPick%2 == 1 {
			base.Engine = EngineParallel
		}

		// Reference: the straight run with no checkpointing at all.
		plain := base
		plainRes, err := Run(plain, specs)
		if err != nil {
			t.Logf("straight run: %v", err)
			return false
		}
		fpPlain := fingerprint(plainRes)

		// Emitting checkpoints must not perturb the run.
		every := 40 + float64(seed%7)*35
		ckCfg, cks := collectCheckpoints(base, every)
		freshComponents(ckCfg, seed, polPick, selPick)
		ckRes, err := Run(*ckCfg, specs)
		if err != nil {
			t.Logf("checkpointed run: %v", err)
			return false
		}
		if fp := fingerprint(ckRes); fp != fpPlain {
			t.Logf("seed %d: checkpointing perturbed the run:\n%s", seed, firstDiff(fpPlain, fp))
			return false
		}
		if len(*cks) == 0 {
			return true // run shorter than one cadence interval
		}

		// Resume from every emitted checkpoint: first (most state still
		// ahead), middle, and last (most state behind) all must converge
		// to the identical final result.
		picks := map[int]bool{0: true, len(*cks) / 2: true, len(*cks) - 1: true}
		for idx := range picks {
			ck := (*cks)[idx]
			resumed := base
			freshComponents(&resumed, seed, polPick, selPick)
			resumed.ResumeFrom = ck.Data
			res, err := Run(resumed, specs)
			if err != nil {
				t.Logf("seed %d: resume from checkpoint %d (t=%v): %v", seed, idx, ck.Time, err)
				return false
			}
			if fp := fingerprint(res); fp != fpPlain {
				t.Logf("seed %d engine %s: resume from checkpoint %d (t=%v) diverged:\n%s",
					seed, resumed.Engine, idx, ck.Time, firstDiff(fpPlain, fp))
				return false
			}
			if res.ambiguousTies != plainRes.ambiguousTies {
				t.Logf("seed %d: ambiguous-tie flag diverged on resume", seed)
				return false
			}
		}
		return true
	}, cfgQuick)
	if err != nil {
		t.Fatal(err)
	}
}

// checkpointFixture runs one deterministic multi-site workload with
// checkpointing and returns the config, specs and emitted checkpoints.
func checkpointFixture(t *testing.T, parallel bool) (Config, []job.Spec, []Checkpoint) {
	t.Helper()
	r := rand.New(rand.NewPCG(404, 405))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Platform:          plat,
		Initial:           federatedInitial(sched.LatencyPenalizedUtil{}),
		Policy:            core.NewResSusWaitRand(99),
		CheckConservation: true,
	}
	if parallel {
		base.Engine = EngineParallel
	}
	ckCfg, cks := collectCheckpoints(base, 60)
	if _, err := Run(*ckCfg, specs); err != nil {
		t.Fatal(err)
	}
	if len(*cks) == 0 {
		t.Fatal("fixture produced no checkpoints; lower the cadence")
	}
	return base, specs, *cks
}

func TestSnapshotRejectsCorruptionAndMismatch(t *testing.T) {
	base, specs, cks := checkpointFixture(t, false)
	data := cks[len(cks)/2].Data

	resume := func(cfg Config, data []byte) error {
		cfg.ResumeFrom = data
		cfg.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
		cfg.Policy = core.NewResSusWaitRand(99)
		_, err := Run(cfg, specs)
		return err
	}

	// The untouched snapshot must resume cleanly.
	if err := resume(base, data); err != nil {
		t.Fatalf("clean resume failed: %v", err)
	}

	// Corruption anywhere must be rejected, never silently absorbed.
	for _, off := range []int{0, 9, len(data) / 3, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x41
		if err := resume(base, bad); err == nil {
			t.Errorf("resume accepted snapshot with byte %d corrupted", off)
		}
	}

	// Truncation must be rejected.
	if err := resume(base, data[:len(data)/2]); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("truncated snapshot: got %v, want ErrSnapshotMismatch", err)
	}

	// A different policy is a different run: config hash mismatch.
	diffPolicy := base
	diffPolicy.Policy = core.NewNoRes()
	diffPolicy.ResumeFrom = data
	diffPolicy.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
	if _, err := Run(diffPolicy, specs); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("policy mismatch: got %v, want ErrSnapshotMismatch", err)
	}

	// A different workload is a different run too.
	if err := resume(base, data); err != nil {
		t.Fatalf("sanity re-resume failed: %v", err)
	}
	shorter := specs[:len(specs)-1]
	resumeShort := base
	resumeShort.ResumeFrom = data
	resumeShort.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
	resumeShort.Policy = core.NewResSusWaitRand(99)
	if _, err := Run(resumeShort, shorter); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("workload mismatch: got %v, want ErrSnapshotMismatch", err)
	}

	// A serial snapshot must not resume under the parallel engine.
	wrongEngine := base
	wrongEngine.Engine = EngineParallel
	if err := resume(wrongEngine, data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("engine-mode mismatch: got %v, want ErrSnapshotMismatch", err)
	}
}

// TestSnapshotRejectsOutOfRangeJobIndex resumes from snapshots whose
// CRC trailer is valid but whose pending finish or wait-timeout event
// names a job past the end of the workload. Restore rewires those
// events into job records by index, so the resume must fail with
// ErrSnapshotMismatch instead of panicking.
func TestSnapshotRejectsOutOfRangeJobIndex(t *testing.T) {
	base, specs, cks := checkpointFixture(t, false)
	data := cks[len(cks)/2].Data
	fresh := func() Config {
		cfg := base
		cfg.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
		cfg.Policy = core.NewResSusWaitRand(99)
		return cfg
	}
	// reencode restores data into a fresh serial shard, lets edit add
	// pending events, and encodes the result with a recomputed trailer.
	reencode := func(edit func(sh *shard)) []byte {
		t.Helper()
		raw := fresh()
		cfg, err := raw.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		w, err := buildWorld(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := decodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		sh := newShard(w, 0, allSites(w), false)
		if err := restoreRun(sn, w, []*shard{sh}, nil); err != nil {
			t.Fatal(err)
		}
		edit(sh)
		out, err := takeSnapshot(w, []*shard{sh}, newSnapParams(w, []*shard{sh}, EngineSerial, sn.every),
			sn.time, sn.events, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	resume := func(snap []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("resume panicked: %v", r)
			}
		}()
		cfg := fresh()
		cfg.ResumeFrom = snap
		_, err = Run(cfg, specs)
		return err
	}

	// The re-encoding itself is sound: unedited, it resumes cleanly.
	if err := resume(reencode(func(*shard) {})); err != nil {
		t.Fatalf("re-encoded snapshot failed to resume: %v", err)
	}
	for _, name := range []string{"finish", "waitTimeout"} {
		for _, job := range []int64{-1, int64(len(specs)), 1 << 40} {
			bad := reencode(func(sh *shard) {
				kd := sh.place.finish
				if name == "waitTimeout" {
					kd = sh.dyn.waitTimeout
				}
				sh.k.schedule(sh.k.now+1, kd, job, 0)
			})
			if _, err := decodeSnapshot(bad); err != nil {
				t.Fatalf("%s job %d: crafted snapshot fails its own CRC: %v", name, job, err)
			}
			err := resume(bad)
			if !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("%s job %d: want ErrSnapshotMismatch, got %v", name, job, err)
			}
		}
	}
}

// TestCheckpointCaptureBufferSizing pins the capture-size hint: from
// the third capture of a run on, and for the first capture after a
// resume, a capture that fits its hint is encoded into a buffer of
// exactly the hinted size, never into a regrown one. The hint is the
// previous capture's size plus twice its growth (the resumed
// snapshot's size after a resume), plus takeSnapshot's 4 KiB slack.
func TestCheckpointCaptureBufferSizing(t *testing.T) {
	base, specs, cks := checkpointFixture(t, false)
	fit := 0
	check := func(what string, prev, grow int, ck Checkpoint) {
		hint := prev + 2*grow + 4096
		if len(ck.Data) > hint {
			return
		}
		fit++
		if cap(ck.Data) != hint {
			t.Errorf("%s: %d bytes in a %d-byte buffer, hint %d", what, len(ck.Data), cap(ck.Data), hint)
		}
	}
	for i := 2; i < len(cks); i++ {
		prev, grow := len(cks[i-1].Data), max(len(cks[i-1].Data)-len(cks[i-2].Data), 0)
		check(fmt.Sprintf("capture %d", i), prev, grow, cks[i])
	}
	mid := cks[len(cks)/2]
	resumed, rcks := collectCheckpoints(base, 60)
	resumed.ResumeFrom = mid.Data
	resumed.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
	resumed.Policy = core.NewResSusWaitRand(99)
	if _, err := Run(*resumed, specs); err != nil {
		t.Fatal(err)
	}
	if len(*rcks) == 0 {
		t.Fatal("resumed run emitted no checkpoints")
	}
	check("first capture after resume", len(mid.Data), 0, (*rcks)[0])
	if fit == 0 {
		t.Fatal("no capture fit its hint; the fixture no longer exercises the sizing")
	}
}

func TestReplayBisectCleanInterval(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		base, specs, cks := checkpointFixture(t, parallel)
		if len(cks) < 2 {
			t.Fatalf("parallel=%v: need two checkpoints, got %d", parallel, len(cks))
		}
		from, to := cks[0], cks[len(cks)-1]
		cfg := base
		cfg.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
		cfg.Policy = core.NewResSusWaitRand(99)
		rep, err := ReplayBisect(cfg, specs, from.Data, to.Data)
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if !rep.Clean() {
			t.Fatalf("parallel=%v: healthy interval reported dirty: deterministic=%v matchesRecorded=%v: %s",
				parallel, rep.Deterministic, rep.MatchesRecorded, rep.FirstDivergence)
		}
		if rep.ReplayedEvents != to.Events-from.Events {
			t.Fatalf("parallel=%v: replayed %d events, interval spans %d",
				parallel, rep.ReplayedEvents, to.Events-from.Events)
		}
	}
}

func TestReplayBisectRejectsCrossConfigSnapshots(t *testing.T) {
	baseA, specsA, cksA := checkpointFixture(t, false)
	_, _, cksB := func() (Config, []job.Spec, []Checkpoint) {
		r := rand.New(rand.NewPCG(505, 506))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Fatal(err)
		}
		base := Config{
			Platform:          plat,
			Initial:           federatedInitial(sched.LocalityFirst{}),
			Policy:            core.NewNoRes(),
			CheckConservation: true,
		}
		ckCfg, cks := collectCheckpoints(base, 60)
		if _, err := Run(*ckCfg, specs); err != nil {
			t.Fatal(err)
		}
		return base, specs, *cks
	}()
	if len(cksB) == 0 {
		t.Skip("second fixture produced no checkpoints")
	}
	if _, err := ReplayBisect(baseA, specsA, cksA[0].Data, cksB[0].Data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("cross-config bisect: got %v, want ErrSnapshotMismatch", err)
	}
}
