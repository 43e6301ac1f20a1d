package sim

// Checkpoint/restore contract tests. The load-bearing invariant is
// bit-identity: a run resumed from a checkpoint taken at any mid-run
// boundary must produce exactly the observables of a never-interrupted
// run — hex-float-exact job records, series, counters and event counts
// — across random federations and zero and nonzero fault regimes.
// Checkpointing itself must be a pure read: a run that emits
// checkpoints must match a run that doesn't. Mismatched, corrupted or
// legacy snapshots must be rejected before any state is touched.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"netbatch/internal/core"
	"netbatch/internal/eventq"
	"netbatch/internal/job"
	"netbatch/internal/sched"
	"netbatch/internal/snap"
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
		Platform:      plat,
		Initial:       federatedInitial(siteSelectorForIndex(int(selPick))),
		Policy:        multiSitePolicyForIndex(int(polPick), seed),
		UtilStaleness: float64(staleness % 40),
		Faults:        fuzzFaults(seed, faultPick, victimPick),
		MaxTime:       50000,
	}
	return cfg, specs, true
}

// freshComponents re-instantiates the stateful scheduler/policy for a
// new run of the same coordinate (their state is per run).
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
	err := quick.Check(func(seed uint64, polPick, selPick, staleness, faultPick, victimPick byte) bool {
		base, specs, ok := checkpointWorkload(t, seed, polPick, selPick, staleness, faultPick, victimPick)
		if !ok {
			return true
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
		// to the identical final result and re-emit the straight run's
		// later checkpoints byte for byte, which is what lets two runs'
		// checkpoint directories be compared with diff -r. Full
		// snapshots only: with deltas on, the first capture after a
		// resume is a keyframe by design.
		picks := map[int]bool{0: true, len(*cks) / 2: true, len(*cks) - 1: true}
		for idx := range picks {
			ck := (*cks)[idx]
			resumed, rcks := collectCheckpoints(base, every)
			freshComponents(resumed, seed, polPick, selPick)
			resumed.ResumeFrom = ck.Data
			res, err := Run(*resumed, specs)
			if err != nil {
				t.Logf("seed %d: resume from checkpoint %d (t=%v): %v", seed, idx, ck.Time, err)
				return false
			}
			if fp := fingerprint(res); fp != fpPlain {
				t.Logf("seed %d: resume from checkpoint %d (t=%v) diverged:\n%s",
					seed, idx, ck.Time, firstDiff(fpPlain, fp))
				return false
			}
			if diff := checkpointsDiffer((*cks)[idx+1:], *rcks); diff != "" {
				t.Logf("seed %d: resume from checkpoint %d (t=%v) re-emitted different checkpoints: %s",
					seed, idx, ck.Time, diff)
				return false
			}
		}
		return true
	}, cfgQuick)
	if err != nil {
		t.Fatal(err)
	}
}

// checkpointsDiffer describes the first difference between the
// checkpoints a run should emit and those it did, or returns "" when
// both streams agree in count, boundaries and bytes.
func checkpointsDiffer(want, got []Checkpoint) string {
	for i := range min(len(want), len(got)) {
		w, g := want[i], got[i]
		switch {
		case w.Time != g.Time || w.Events != g.Events:
			return fmt.Sprintf("checkpoint %d at t=%v after %d events, want t=%v after %d events",
				i, g.Time, g.Events, w.Time, w.Events)
		case !bytes.Equal(w.Data, g.Data):
			return fmt.Sprintf("checkpoint %d at t=%v: bytes differ (%d here, %d in the straight run)",
				i, g.Time, len(g.Data), len(w.Data))
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("%d checkpoints, want %d", len(got), len(want))
	}
	return ""
}

// checkpointFixture runs one deterministic multi-site workload with
// checkpointing and returns the config, specs and emitted checkpoints.
func checkpointFixture(t *testing.T) (Config, []job.Spec, []Checkpoint) {
	t.Helper()
	return checkpointFixtureWith(t, FaultConfig{})
}

// checkpointFixtureWith is checkpointFixture under the given fault
// regime.
func checkpointFixtureWith(t *testing.T, faults FaultConfig) (Config, []job.Spec, []Checkpoint) {
	t.Helper()
	r := rand.New(rand.NewPCG(404, 405))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Platform: plat,
		Initial:  federatedInitial(sched.LatencyPenalizedUtil{}),
		Policy:   core.NewResSusWaitRand(99),
		Faults:   faults,
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
	base, specs, cks := checkpointFixture(t)
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

	// Older-format snapshots (valid trailer) must fail cleanly, never
	// panic: the version is the second header word. A forged version-4
	// header over a version-5 body passes every other guard, so only
	// the version word stops it.
	for _, version := range []uint64{3, 4} {
		legacy := patchSnapshot(t, data, func(body []byte, _ *snapshot) {
			binary.LittleEndian.PutUint64(body[8:], version)
		})
		want := fmt.Sprintf("version %d", version)
		if _, err := decodeSnapshot(legacy); !errors.Is(err, ErrSnapshotMismatch) || !strings.Contains(err.Error(), want) {
			t.Errorf("version-%d snapshot decode: got %v, want the ErrSnapshotMismatch version error", version, err)
		}
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("version-%d resume panicked: %v", version, r)
				}
			}()
			return resume(base, legacy)
		}()
		if !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("version-%d snapshot: got %v, want ErrSnapshotMismatch", version, err)
		}
	}
}

// patchSnapshot returns a copy of data with edit applied to the decoded
// copy — header fields through the raw body, codec sections through
// sn.sections, whose data alias the body — and the CRC trailer
// recomputed, so only the edit can make a resume fail.
func patchSnapshot(t *testing.T, data []byte, edit func(body []byte, sn *snapshot)) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	sn, err := decodeSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	body := out[:len(out)-8]
	edit(body, sn)
	binary.LittleEndian.PutUint64(out[len(body):], uint64(crc32.Checksum(body, castagnoli)))
	return out
}

// oldKindTableHash is kindTableHash as builds with the partitioned
// engines computed it: each kind's name plus its deciding and handoff
// synchronization flags.
func oldKindTableHash(w *world) uint64 {
	deciding := map[string]bool{"submit": true, "susDecide": true, "waitTimeout": true}
	handoff := map[string]bool{
		"arrive": true, "finish": true,
		"fault.crash": true, "fault.repair": true, "fault.maintStart": true, "fault.maintEnd": true,
	}
	h := fnv.New64a()
	for _, name := range kindNames[1:w.numKinds()] {
		fmt.Fprintf(h, "%s|%t|%t;", name, deciding[name], handoff[name])
	}
	return h.Sum64()
}

// TestSnapshotRejectsOldKindHash resumes from a snapshot whose header
// carries the kind-table hash the partitioned-engine builds wrote. Its
// bytes are otherwise this build's, with a valid trailer, so the hash
// alone must fail the resume with ErrSnapshotMismatch — which is what
// makes -resume re-run such cells fresh.
func TestSnapshotRejectsOldKindHash(t *testing.T) {
	base, specs, cks := checkpointFixture(t)
	raw := freshFixtureConfig(base)
	cfg, err := raw.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorld(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	oldHash, newHash := oldKindTableHash(w), kindTableHash(w)
	if oldHash == newHash {
		t.Fatal("old and new kind-table hashes coincide")
	}
	data := cks[len(cks)/2].Data
	// The kind hash is the fourth header word: magic, version, config
	// hash, kind hash.
	if got := binary.LittleEndian.Uint64(data[24:]); got != newHash {
		t.Fatalf("header kind hash %#x, want %#x", got, newHash)
	}
	old := patchSnapshot(t, data, func(body []byte, _ *snapshot) {
		binary.LittleEndian.PutUint64(body[24:], oldHash)
	})
	cfgRun := freshFixtureConfig(base)
	cfgRun.ResumeFrom = old
	if _, err := Run(cfgRun, specs); !errors.Is(err, ErrSnapshotMismatch) || !strings.Contains(err.Error(), "event-kind table hash") {
		t.Fatalf("old kind hash: got %v, want the ErrSnapshotMismatch kind-table error", err)
	}
}

// freshFixtureConfig returns base with fresh instances of the
// checkpoint fixture's stateful scheduler and policy.
func freshFixtureConfig(base Config) Config {
	base.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
	base.Policy = core.NewResSusWaitRand(99)
	return base
}

// reencodeSnapshot restores data into a fresh world, lets edit change
// the restored state, and encodes the result through takeSnapshot,
// with a valid trailer. The header takes the edited clock and event
// count.
func reencodeSnapshot(t *testing.T, raw Config, specs []job.Spec, data []byte, edit func(w *world)) []byte {
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
	h := configHash(w)
	if err := w.restore(sn, h); err != nil {
		t.Fatal(err)
	}
	edit(w)
	return takeSnapshot(w, newSnapParams(w, sn.every, h), w.now, w.events)
}

// takeSnapshot encodes the full snapshot of w at boundary (now, events)
// the way a run's first capture does.
func takeSnapshot(w *world, p snapParams, now float64, events int64) []byte {
	ck := &checkpointer{w: w, params: p}
	return ck.full(ck.capture(now, events))
}

// TestSnapshotRejectsOutOfRangeJobIndex resumes from snapshots whose
// CRC trailer is valid but whose pending event names a job, pool,
// site or machine outside the run (one row per kind and payload word),
// whose open maintenance block names anything but a down machine of
// its site, or whose window end finds no open block. Handlers index
// state with those words and blocks, so the resume must fail with
// ErrSnapshotMismatch instead of panicking.
func TestSnapshotRejectsOutOfRangeJobIndex(t *testing.T) {
	faults := FaultConfig{MTBF: 300, MTTR: 20, MaintPeriod: 200, MaintDuration: 50, Seed: 5}
	base, specs, cks := checkpointFixtureWith(t, faults)
	data := cks[0].Data
	// reencode restores data, lets edit change the state, and encodes
	// the result with a recomputed trailer.
	reencode := func(edit func(w *world)) []byte {
		return reencodeSnapshot(t, freshFixtureConfig(base), specs, data, edit)
	}
	resume := func(snap []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("resume panicked: %v", r)
			}
		}()
		cfg := freshFixtureConfig(base)
		cfg.ResumeFrom = snap
		_, err = Run(cfg, specs)
		return err
	}
	reject := func(what string, edit func(w *world)) {
		t.Helper()
		bad := reencode(edit)
		if _, err := decodeSnapshot(bad); err != nil {
			t.Fatalf("%s: crafted snapshot fails its own CRC: %v", what, err)
		}
		if err := resume(bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: want ErrSnapshotMismatch, got %v", what, err)
		}
	}

	// The re-encoding itself is sound: unedited, it resumes cleanly.
	if err := resume(reencode(func(*world) {})); err != nil {
		t.Fatalf("re-encoded snapshot failed to resume: %v", err)
	}
	nSites, nPools, nMachines := base.Platform.NumSites(), base.Platform.NumPools(), base.Platform.NumMachines()
	last := int64(len(specs) - 1)
	rows := []struct {
		kind  kind
		word  int   // the word under test: 0 for a, 1 for b
		n     int   // it must lie in [0, n)
		other int64 // the other word, in range
	}{
		{kSubmit, 0, len(specs), 0},
		{kArrive, 0, len(specs), 0},
		{kArrive, 1, nPools, 0},
		{kFinish, 0, len(specs), 0},
		{kSusDecide, 0, len(specs), 0},
		{kWaitTimeout, 0, len(specs), 0},
		{kSnapshot, 0, nSites, 0},
		{kSnapshot, 1, nSites, 0},
		{kCrash, 0, nSites, 0},
		{kRepair, 0, nMachines, 0},
		{kMaintStart, 0, nSites, 0},
		{kMaintEnd, 0, nSites, 0},
	}
	// Each crafted event fires at the last job's submit time. A job
	// word names job 0, which every checkpoint has submitted, unless it
	// is the word under test; the rows past the submitted prefix
	// (len(specs) and the larger values) fail on the prefix bound.
	at := specs[last].Submit
	covered := map[string]bool{}
	for _, row := range rows {
		name := kindNames[row.kind]
		covered[name] = true
		for _, v := range []int64{-1, int64(row.n), 1 << 20, 1 << 40} {
			reject(fmt.Sprintf("%s word %d = %d", name, row.word, v), func(w *world) {
				words := [2]int64{row.other, row.other}
				words[row.word] = v
				w.schedule(at, row.kind, words[0], words[1])
			})
		}
	}
	for _, name := range kindNames[1:] {
		if !covered[name] {
			t.Errorf("kind %s has no row", name)
		}
	}

	// An open maintenance block may only name down machines of its
	// site, and a window end needs an open block.
	m0 := base.Platform.Pool(base.Platform.Site(0).Pools[0]).Machines[0]
	foreign := base.Platform.Pool(base.Platform.Site(1).Pools[0]).Machines[0]
	block := func(w *world, mid int) { w.faults[0].open = append(w.faults[0].open, []int{mid}) }
	end := func(w *world) { w.schedule(at, kMaintEnd, 0, 0) }
	for _, tc := range []struct {
		what string
		edit func(w *world)
	}{
		{"block naming machine -1", func(w *world) { block(w, -1); end(w) }},
		{"block naming a machine past the platform", func(w *world) { block(w, nMachines); end(w) }},
		{"block naming another site's machine", func(w *world) {
			w.machines[foreign].down = true
			block(w, foreign)
			end(w)
		}},
		{"block naming an up machine", func(w *world) {
			w.machines[m0].down = false
			block(w, m0)
			end(w)
		}},
		{"window end without a block", end},
	} {
		reject("site 0 "+tc.what, tc.edit)
	}
}

// TestKindTableHashPinned pins the kind-table hash of a fault-free and
// a faulted run. Snapshots carry it in their header, so a change to
// the kind numbering or names would make every stored checkpoint
// unresumable.
func TestKindTableHashPinned(t *testing.T) {
	for _, tc := range []struct {
		faults FaultConfig
		want   uint64
	}{
		{FaultConfig{}, 0xfca1c475241a7db2},
		{FaultConfig{MTBF: 300, MTTR: 20, Seed: 5}, 0xce7d752f580fe8df},
	} {
		raw := baseConfig(miniPlatform(t, 2))
		raw.Faults = tc.faults
		cfg, err := raw.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		w, err := buildWorld(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := kindTableHash(w); got != tc.want {
			t.Errorf("faults %+v: kind-table hash %#x, want %#x", tc.faults, got, tc.want)
		}
	}
}

// forgedScheduler stands in for the run's scheduler while a snapshot is
// re-encoded: its "scheduler" section is whatever save writes.
type forgedScheduler struct {
	sched.InitialScheduler
	save func(e *snap.Encoder)
}

func (f forgedScheduler) SaveState(e *snap.Encoder)     { f.save(e) }
func (f forgedScheduler) LoadState(*snap.Decoder) error { return nil }

// TestSnapshotRejectsImpossibleState resumes from snapshots whose CRC
// trailer is valid but whose placement, fault, time, scheduler or
// policy words no run can continue from: an index past the platform, a
// job state that does not exist, a wait-queue head outside its items, a
// clock outside the run, a sample cursor away from the clock, a
// round-robin rotation that does not match its candidate set, a
// truncated section, bytes that are no PCG state. Each must fail with
// ErrSnapshotMismatch, without a panic and without a hang. Resumes run
// with checkpointing on, because the checkpoint cadence is one of the
// loops a bad clock can stall.
func TestSnapshotRejectsImpossibleState(t *testing.T) {
	faults := FaultConfig{MTBF: 300, MTTR: 20, MaintPeriod: 200, MaintDuration: 50, Seed: 5}
	base, specs, cks := checkpointFixtureWith(t, faults)
	// The second checkpoint has running and waiting jobs, non-empty
	// wait queues and a crashed machine.
	data := cks[1].Data
	reencode := func(edit func(w *world)) []byte {
		return reencodeSnapshot(t, freshFixtureConfig(base), specs, data, edit)
	}
	// editJob applies edit to the first job in state st.
	editJob := func(st job.State, edit func(*job.JobState)) func(w *world) {
		return func(w *world) {
			for i := range w.jobs {
				if j := &w.jobs[i]; j.State() == st {
					js := j.ExportState()
					edit(&js)
					j.RestoreState(js)
					return
				}
			}
			t.Fatalf("checkpoint has no %v job", st)
		}
	}
	// eachClass and eachFIFO apply edit to every machine class and
	// every wait-queue FIFO of the platform.
	eachClass := func(edit func(*machineClass)) func(w *world) {
		return func(w *world) {
			for _, p := range w.pools {
				for ci := range p.classes {
					edit(&p.classes[ci])
				}
			}
		}
	}
	eachFIFO := func(edit func(*fifo)) func(w *world) {
		return func(w *world) {
			n := 0
			for _, p := range w.pools {
				for _, f := range p.waitQ.classes {
					edit(f)
					n++
				}
			}
			if n == 0 {
				t.Fatal("checkpoint has no wait-queue FIFO")
			}
		}
	}
	downMachine := func(edit func(*machineRT)) func(w *world) {
		return func(w *world) {
			for m := range w.machines {
				if w.machines[m].down {
					edit(&w.machines[m])
					return
				}
			}
			t.Fatal("checkpoint has no down machine")
		}
	}
	// forge re-encodes the snapshot with save's bytes as the scheduler
	// section; rotation saves a round-robin state of one weighted
	// rotation (and no equal-turns cursor).
	forge := func(save func(e *snap.Encoder)) []byte {
		return reencode(func(w *world) { w.cfg.Initial = forgedScheduler{w.cfg.Initial, save} })
	}
	rotation := func(key string, pools, weights, current []int) []byte {
		return forge(func(e *snap.Encoder) {
			e.Int(0)
			e.Int(1)
			e.Str(key)
			e.Ints(pools)
			e.Ints(weights)
			e.Ints(current)
		})
	}
	// The forgery itself is sound: a well-formed rotation resumes.
	cfg := freshFixtureConfig(base)
	cfg.ResumeFrom = rotation("0,1,", []int{0, 1}, []int{1, 1}, []int{0, 0})
	if _, err := Run(cfg, specs); err != nil {
		t.Fatalf("well-formed forged rotation: %v", err)
	}
	truncated := reencode(func(w *world) {
		var full snap.Encoder
		w.cfg.Initial.(Stateful).SaveState(&full)
		w.cfg.Initial = forgedScheduler{w.cfg.Initial, func(e *snap.Encoder) {
			e.Buf = append(e.Buf, full.Buf[:len(full.Buf)/2]...)
		}}
	})
	// garblePCG overwrites the marker of the first marshaled PCG state
	// in the named section.
	garblePCG := func(section string) []byte {
		return patchSnapshot(t, data, func(_ []byte, sn *snapshot) {
			for _, sec := range sn.sections {
				if at := bytes.Index(sec.data, []byte("pcg:")); sec.name == section && at >= 0 {
					copy(sec.data[at:], "PCG?")
					return
				}
			}
			t.Fatalf("section %s holds no PCG state", section)
		})
	}
	// headerTime overwrites the header's clock alone: the word after
	// the magic, the version, both hashes, the cadence and the
	// length-prefixed label.
	headerTime := func(v float64) []byte {
		return patchSnapshot(t, data, func(body []byte, sn *snapshot) {
			at := 48 + len(sn.label)
			if got := math.Float64frombits(binary.LittleEndian.Uint64(body[at:])); got != sn.time {
				t.Fatalf("header clock word at %d reads %v, want %v", at, got, sn.time)
			}
			binary.LittleEndian.PutUint64(body[at:], math.Float64bits(v))
		})
	}
	// cursor overwrites the core section's submission cursor, its third
	// word after the clock and the event count.
	cursor := func(v func(int64) int64) []byte {
		return patchSnapshot(t, data, func(_ []byte, sn *snapshot) {
			for _, sec := range sn.sections {
				if sec.name == "core" {
					binary.LittleEndian.PutUint64(sec.data[16:], uint64(v(int64(binary.LittleEndian.Uint64(sec.data[16:])))))
					return
				}
			}
			t.Fatal("snapshot has no core section")
		})
	}
	// atFirst re-encodes the snapshot with the pending events edit
	// returns when handed them and the index of the first of kind kd,
	// stamps kept.
	atFirst := func(kd kind, edit func(evs []eventq.SavedEvent, i int) []eventq.SavedEvent) []byte {
		return reencode(func(w *world) {
			evs := w.q.Export()
			i := slices.IndexFunc(evs, func(ev eventq.SavedEvent) bool { return kind(ev.Kind) == kd })
			if i < 0 {
				t.Fatalf("checkpoint has no pending %s event", kindNames[kd])
			}
			seq := w.q.Seq()
			w.q = eventq.New()
			w.q.SetSeq(seq)
			for _, ev := range edit(evs, i) {
				w.q.Restore(ev)
			}
		})
	}
	drop := func(evs []eventq.SavedEvent, i int) []eventq.SavedEvent { return slices.Delete(evs, i, i+1) }
	double := func(evs []eventq.SavedEvent, i int) []eventq.SavedEvent {
		ev := evs[i]
		ev.Seq = 1 << 40
		return append(evs, ev)
	}
	at := func(edit func(*eventq.SavedEvent)) func([]eventq.SavedEvent, int) []eventq.SavedEvent {
		return func(evs []eventq.SavedEvent, i int) []eventq.SavedEvent {
			edit(&evs[i])
			return evs
		}
	}
	// record overwrites word k of the first record in state st.
	record := func(st job.State, k int, v uint64) []byte {
		return patchSnapshot(t, data, func(_ []byte, sn *snapshot) {
			for i := 0; i < len(sn.jobs); i += jobRecLen {
				if binary.LittleEndian.Uint64(sn.jobs[i:]) == uint64(st) {
					binary.LittleEndian.PutUint64(sn.jobs[i+8*k:], v)
					return
				}
			}
			t.Fatalf("checkpoint has no %v job", st)
		})
	}
	// Restore itself must reject these: the narrowed words of a job
	// record, and pending submits and finishes its records pin.
	atRestore := []struct {
		name string
		snap []byte
	}{
		{"running job's state word 259, which a byte would wrap to running", record(job.StateRunning, 0, 256+uint64(job.StateRunning))},
		{"suspension counter 2^32, which an int32 would wrap to 0", record(job.StateRunning, 12, 1<<32)},
		{"kill counter -1", record(job.StateRunning, 15, math.MaxUint64)},
		{"pending submit moved to t=9.9e6", atFirst(kSubmit, at(func(ev *eventq.SavedEvent) { ev.Time = 9.9e6 }))},
		{"pending submit for an earlier job", atFirst(kSubmit, at(func(ev *eventq.SavedEvent) { ev.A-- }))},
		{"pending submit dropped", atFirst(kSubmit, drop)},
		{"second pending submit", atFirst(kSubmit, double)},
		{"pending finish a minute late", atFirst(kFinish, at(func(ev *eventq.SavedEvent) { ev.Time++ }))},
		{"pending finish one ulp early", atFirst(kFinish, at(func(ev *eventq.SavedEvent) { ev.Time = math.Nextafter(ev.Time, 0) }))},
		{"running job without a pending finish", atFirst(kFinish, drop)},
		{"second pending finish", atFirst(kFinish, double)},
		{"pending finish of a waiting job", reencode(func(w *world) {
			for i := range w.jobs {
				if w.jobs[i].State() == job.StateWaiting {
					w.schedule(w.now+1, kFinish, int64(i), 0)
					return
				}
			}
			t.Fatal("checkpoint has no waiting job")
		})},
	}
	for _, row := range atRestore {
		raw := freshFixtureConfig(base)
		cfg, err := raw.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		w, err := buildWorld(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := decodeSnapshot(row.snap)
		if err != nil {
			t.Fatalf("%s: crafted snapshot fails its own CRC: %v", row.name, err)
		}
		if err := w.restore(sn, configHash(w)); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: restore: want ErrSnapshotMismatch, got %v", row.name, err)
		}
	}
	rows := []struct {
		name string
		snap []byte
	}{
		{"running job's machine past the platform", reencode(editJob(job.StateRunning, func(st *job.JobState) { st.Machine = 1 << 40 }))},
		{"running job's pool past the platform", reencode(editJob(job.StateRunning, func(st *job.JobState) { st.Pool = 1 << 40 }))},
		{"waiting job's pool past the platform", reencode(editJob(job.StateWaiting, func(st *job.JobState) { st.Pool = 1 << 40 }))},
		{"running job in state 99", reencode(editJob(job.StateRunning, func(st *job.JobState) { st.State = 99 }))},
		{"free-stack entry -1", reencode(eachClass(func(c *machineClass) { c.free = append(c.free, -1) }))},
		{"free-stack entry past the platform", reencode(eachClass(func(c *machineClass) { c.free = append(c.free, 1<<40) }))},
		{"completed job queued", reencode(func(w *world) {
			for i := range w.jobs {
				if w.jobs[i].State() == job.StateCompleted {
					w.jobs[i].queued = true
					return
				}
			}
			t.Fatal("checkpoint has no completed job")
		})},
		{"victim-stack entry -1", reencode(func(w *world) {
			for _, p := range w.pools {
				for prio, stack := range p.running {
					if stack != nil {
						p.running[prio] = append(stack, nil)
						return
					}
				}
			}
			t.Fatal("checkpoint has no victim stack")
		})},
		{"victim stack of priority 4095, past maxPriority", reencode(func(w *world) {
			w.pools[0].running = make([][]*jobRT, 1<<12)
			w.pools[0].running[len(w.pools[0].running)-1] = []*jobRT{}
		})},
		{"wait-queue head -1", reencode(eachFIFO(func(f *fifo) { f.head = -1 }))},
		{"wait-queue head past its items", reencode(eachFIFO(func(f *fifo) { f.head = len(f.items) + 100 }))},
		{"down machine's span past its site's log", reencode(downMachine(func(m *machineRT) { m.spanIdx = 1 << 40 }))},
		{"maintenance rotation index -5", reencode(func(w *world) {
			for s := range w.faults {
				w.faults[s].maintIdx = -5
			}
		})},
		{"clock 1e300", reencode(func(w *world) { w.now = 1e300 })},
		{"clock +Inf", reencode(func(w *world) { w.now = inf })},
		{"clock and sample cursor -1e300", reencode(func(w *world) { w.now, w.acct.next = -1e300, -1e300 })},
		{"header clock 1e300 over the core section's", headerTime(1e300)},
		{"sample cursor -1e300", reencode(func(w *world) { w.acct.next = -1e300 })},
		{"sample cursor -1e6", reencode(func(w *world) { w.acct.next = -1e6 })},
		{"submission cursor -1", cursor(func(int64) int64 { return -1 })},
		{"wait-queue entry past the submitted prefix", reencode(func(w *world) {
			eachFIFO(func(f *fifo) { f.items = append(f.items, &w.jobs[w.nextSubmit]) })(w)
		})},
		{"running list naming a job past the submitted prefix", reencode(func(w *world) {
			w.machines[0].running = append(w.machines[0].running, &w.jobs[w.nextSubmit])
		})},
		{"pending finish of a job past the submitted prefix", reencode(func(w *world) {
			w.schedule(w.now+1, kFinish, int64(w.nextSubmit), 0)
		})},
		{"jobs section shorter than the core section's cursor", cursor(func(c int64) int64 { return c + 1 })},
		{"pending event at NaN", reencode(func(w *world) { w.schedule(math.NaN(), kSusDecide, 0, 0) })},
		{"rotation's current weights shorter than its pools", rotation("0,1,", []int{0, 1}, []int{1, 1}, []int{0})},
		{"rotation naming a pool past the platform, not its key", rotation("0,1,", []int{0, 1 << 40}, []int{1, 1}, []int{0, 0})},
		{"truncated scheduler section", truncated},
		{"garbled policy RNG bytes", garblePCG("policy")},
		{"garbled fault-stream PCG bytes", garblePCG("faults")},
	}
	rows = append(rows, atRestore...)
	for _, row := range rows {
		if _, err := decodeSnapshot(row.snap); err != nil {
			t.Fatalf("%s: crafted snapshot fails its own CRC: %v", row.name, err)
		}
		// A hung resume cannot be stopped (the loops a bad clock stalls
		// poll no context), so on a timeout the row fails and its
		// goroutine is left running until the test binary exits.
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("resume panicked: %v", r)
				}
			}()
			cfg, _ := collectCheckpoints(freshFixtureConfig(base), 60)
			cfg.ResumeFrom = row.snap
			_, err := Run(*cfg, specs)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrSnapshotMismatch) {
				t.Errorf("%s: want ErrSnapshotMismatch, got %v", row.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: resume still running after 5s", row.name)
		}
	}
}

// TestCheckpointCaptureBufferSizing pins the capture buffers: every
// snapshot a run emits, full or delta, in a straight run or after a
// resume, is encoded into a buffer of exactly its size, so no capture
// copies into a regrown buffer or keeps slack alive in the sink.
func TestCheckpointCaptureBufferSizing(t *testing.T) {
	base, specs, cks := checkpointFixture(t)
	mid := cks[len(cks)/2]
	resumed, rcks := collectCheckpoints(freshFixtureConfig(base), 60)
	resumed.ResumeFrom = mid.Data
	if _, err := Run(*resumed, specs); err != nil {
		t.Fatal(err)
	}
	keyed, kcks := collectCheckpoints(freshFixtureConfig(base), 60)
	keyed.CheckpointKeyframe = 4
	if _, err := Run(*keyed, specs); err != nil {
		t.Fatal(err)
	}
	if len(*rcks) == 0 || len(*kcks) == 0 {
		t.Fatal("a run emitted no checkpoints")
	}
	for what, stream := range map[string][]Checkpoint{"straight": cks, "resumed": *rcks, "keyframed": *kcks} {
		for i, ck := range stream {
			if cap(ck.Data) != len(ck.Data) {
				t.Errorf("%s capture %d (delta %t): %d bytes in a %d-byte buffer", what, i, ck.Delta, len(ck.Data), cap(ck.Data))
			}
		}
	}
}

// bufferedConfigHash is configHash as it was first written: every word
// encoded into one buffer of the workload's size, then hashed at once.
func bufferedConfigHash(w *world) uint64 {
	cfg := &w.cfg
	var e snap.Encoder
	e.F64(cfg.SampleEvery)
	e.F64(cfg.SeriesBin)
	e.F64(cfg.RescheduleOverhead)
	e.F64(cfg.UtilStaleness)
	e.F64(cfg.DecisionDelay)
	e.F64(cfg.MaxTime)
	e.Bool(cfg.DisableSampling)
	e.F64(cfg.Faults.MTBF)
	e.F64(cfg.Faults.MTTR)
	e.F64(cfg.Faults.MaintPeriod)
	e.F64(cfg.Faults.MaintDuration)
	e.F64(cfg.Faults.MaintFraction)
	e.Str(cfg.Faults.Victim)
	e.U64(cfg.Faults.Seed)
	e.Str(cfg.Initial.Name())
	e.Str(cfg.Policy.Name())
	e.F64(cfg.Policy.WaitThreshold())
	if mig, ok := cfg.Policy.(interface{ MigrationOverhead() float64 }); ok {
		e.F64(mig.MigrationOverhead())
	}
	plat := w.plat
	e.Int(plat.NumSites())
	e.Int(plat.NumPools())
	for p := 0; p < plat.NumPools(); p++ {
		e.Int(plat.SiteOf(p))
		e.Int(plat.Pool(p).Cores)
		e.Ints(plat.Pool(p).Machines)
	}
	e.Int(plat.NumMachines())
	for i := 0; i < plat.NumMachines(); i++ {
		m := plat.Machine(i)
		e.Int(m.Pool)
		e.Int(m.Cores)
		e.Int(m.MemMB)
		e.F64(m.Speed)
		e.Str(m.OS)
	}
	for a := 0; a < plat.NumSites(); a++ {
		for b := 0; b < plat.NumSites(); b++ {
			e.F64(plat.RTT(a, b))
		}
	}
	e.Int(len(w.specs))
	for i := range w.specs {
		s := &w.specs[i]
		e.I64(int64(s.ID))
		e.F64(s.Submit)
		e.F64(s.Work)
		e.Int(s.Cores)
		e.Int(s.MemMB)
		e.Str(s.OS)
		e.Int(int(s.Priority))
		e.Ints(s.Candidates)
		e.Int(s.Site)
		e.I64(s.TaskID)
	}
	h := fnv.New64a()
	h.Write(e.Buf)
	return h.Sum64()
}

// TestConfigHashMatchesBufferedConstruction pins configHash, which
// feeds its words to the hash one by one, to the one-buffer
// construction, so every stored snapshot's guard still matches: first
// word by word over zero, small, full-width and negative words, then
// over two fixtures of several hundred jobs.
func TestConfigHashMatchesBufferedConstruction(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xff, 0x100, 1 << 56, math.MaxUint64, math.Float64bits(0.5)} {
		var e snap.Encoder
		e.U64(v)
		e.Bool(true)
		e.Str("linux")
		ref := fnv.New64a()
		ref.Write(e.Buf)
		h := newFNVWords()
		h.U64(v)
		h.Bool(true)
		h.Str("linux")
		if uint64(h) != ref.Sum64() {
			t.Errorf("word %#x: hash %#x, FNV-1a of its bytes %#x", v, uint64(h), ref.Sum64())
		}
	}
	base, specs, _ := checkpointFixture(t)
	for _, faults := range []FaultConfig{{}, {MTBF: 300, MTTR: 20, MaintPeriod: 200, MaintDuration: 50, Seed: 5}} {
		raw := freshFixtureConfig(base)
		raw.Faults = faults
		cfg, err := raw.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		w, err := buildWorld(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		want := bufferedConfigHash(w)
		if got := configHash(w); got != want {
			t.Errorf("faults %+v: configHash %#x, one-buffer construction %#x", faults, got, want)
		}
	}
}

// TestCRCCombine checks crcCombine against the CRC-32C of the whole
// input, for splits at every kind of boundary and with empty halves.
func TestCRCCombine(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(r.UintN(256))
	}
	want := crc32.Checksum(data, castagnoli)
	for _, cut := range []int{0, 1, 7, 8, jobRecLen, 2500, 4999, 5000} {
		a, b := data[:cut], data[cut:]
		if got := crcCombine(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli), len(b)); got != want {
			t.Errorf("split at %d: combined CRC %#x, whole %#x", cut, got, want)
		}
	}
}
