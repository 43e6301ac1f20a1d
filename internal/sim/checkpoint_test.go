package sim

// Checkpoint/restore contract tests. The load-bearing invariant is
// bit-identity: a run resumed from a checkpoint taken at any mid-run
// boundary must produce exactly the observables of a never-interrupted
// run — hex-float-exact job records, series, counters and event counts
// — across random federations, both engine selections, and zero and
// nonzero fault regimes. Checkpointing itself must be a pure read: a
// run that emits checkpoints must match a run that doesn't, and asking
// for the optimistic engine must emit the serial run's snapshots byte
// for byte. Mismatched, corrupted or legacy snapshots must be rejected
// before any state is touched.

import (
	"bytes"
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
			base.Engine = EngineOptimistic
		}

		// Reference: the straight run with no checkpointing at all.
		plain := base
		plainRes, err := Run(plain, specs)
		if err != nil {
			t.Logf("straight run: %v", err)
			return false
		}
		if plainRes.ambiguousTies {
			// The optimistic straight run met a tie whose serial order it
			// cannot reconstruct, so its bit-identity with the serial
			// kernel — which runs every checkpointed and resumed cell —
			// is void for this coordinate.
			t.Logf("seed %d: ambiguous tie observed, skipping comparison", seed)
			return true
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
		if base.Engine == EngineOptimistic {
			// Checkpointed runs execute on the serial kernel whatever
			// engine was asked for: the snapshots must be the serial
			// run's, byte for byte.
			serialCfg, serialCks := collectCheckpoints(base, every)
			serialCfg.Engine = EngineSerial
			freshComponents(serialCfg, seed, polPick, selPick)
			if _, err := Run(*serialCfg, specs); err != nil {
				t.Logf("serial checkpointed run: %v", err)
				return false
			}
			if !sameCheckpoints(*cks, *serialCks) {
				t.Logf("seed %d: optimistic checkpoint stream differs from the serial one", seed)
				return false
			}
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
		}
		return true
	}, cfgQuick)
	if err != nil {
		t.Fatal(err)
	}
}

// sameCheckpoints reports whether two checkpoint streams are identical:
// same boundaries, same delta flags, same bytes.
func sameCheckpoints(a, b []Checkpoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Events != b[i].Events ||
			a[i].Delta != b[i].Delta || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// checkpointFixture runs one deterministic multi-site workload with
// checkpointing and returns the config, specs and emitted checkpoints.
func checkpointFixture(t *testing.T, engine string) (Config, []job.Spec, []Checkpoint) {
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
		Engine:            engine,
		CheckConservation: true,
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
	base, specs, cks := checkpointFixture(t, EngineSerial)
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

	// A snapshot written by the removed conservative engine (mode
	// "parallel", valid trailer) must fail cleanly under either engine
	// selection, never panic.
	legacy := reencodeSnapshot(t, freshFixtureConfig(base), specs, data, "parallel", func(*shard) {})
	if _, err := decodeSnapshot(legacy); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("legacy snapshot decode: got %v, want ErrSnapshotMismatch", err)
	}
	for _, engine := range []string{EngineSerial, EngineOptimistic} {
		cfg := base
		cfg.Engine = engine
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: legacy resume panicked: %v", engine, r)
				}
			}()
			return resume(cfg, legacy)
		}()
		if !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: legacy parallel-mode snapshot: got %v, want ErrSnapshotMismatch", engine, err)
		}
	}
}

// freshFixtureConfig returns base with fresh instances of the
// checkpoint fixture's stateful scheduler and policy.
func freshFixtureConfig(base Config) Config {
	base.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
	base.Policy = core.NewResSusWaitRand(99)
	return base
}

// reencodeSnapshot restores data into a fresh serial shard, lets edit
// change the restored state, and encodes the result through
// takeSnapshot under the given engine mode, with a valid trailer.
func reencodeSnapshot(t *testing.T, raw Config, specs []job.Spec, data []byte, mode string, edit func(sh *shard)) []byte {
	t.Helper()
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
	if err := restoreRun(sn, w, sh); err != nil {
		t.Fatal(err)
	}
	edit(sh)
	p := newSnapParams(w, sh, sn.every)
	p.mode = mode
	out, err := takeSnapshot(w, sh, p, sn.time, sn.events)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotRejectsOutOfRangeJobIndex resumes from snapshots whose
// CRC trailer is valid but whose pending finish or wait-timeout event
// names a job past the end of the workload. Restore rewires those
// events into job records by index, so the resume must fail with
// ErrSnapshotMismatch instead of panicking.
func TestSnapshotRejectsOutOfRangeJobIndex(t *testing.T) {
	base, specs, cks := checkpointFixture(t, EngineSerial)
	data := cks[len(cks)/2].Data
	// reencode restores data, lets edit add pending events, and encodes
	// the result with a recomputed trailer.
	reencode := func(edit func(sh *shard)) []byte {
		return reencodeSnapshot(t, freshFixtureConfig(base), specs, data, EngineSerial, edit)
	}
	resume := func(snap []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("resume panicked: %v", r)
			}
		}()
		cfg := freshFixtureConfig(base)
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
	base, specs, cks := checkpointFixture(t, EngineSerial)
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
	for _, engine := range []string{EngineSerial, EngineOptimistic} {
		base, specs, cks := checkpointFixture(t, engine)
		if len(cks) < 2 {
			t.Fatalf("%s: need two checkpoints, got %d", engine, len(cks))
		}
		from, to := cks[0], cks[len(cks)-1]
		rep, err := ReplayBisect(freshFixtureConfig(base), specs, from.Data, to.Data)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !rep.Clean() {
			t.Fatalf("%s: healthy interval reported dirty: deterministic=%v matchesRecorded=%v: %s",
				engine, rep.Deterministic, rep.MatchesRecorded, rep.FirstDivergence)
		}
		if rep.ReplayedEvents != to.Events-from.Events {
			t.Fatalf("%s: replayed %d events, interval spans %d",
				engine, rep.ReplayedEvents, to.Events-from.Events)
		}
	}
}

func TestReplayBisectRejectsCrossConfigSnapshots(t *testing.T) {
	baseA, specsA, cksA := checkpointFixture(t, EngineSerial)
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
