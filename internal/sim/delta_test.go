package sim

// Delta-snapshot contract tests: the record-patch codec round-trips
// arbitrary record edits, a keyframed checkpoint stream reconstructs
// the keyframe-only stream byte for byte and resumes bit-identically
// from full and delta members alike, every record a capture leaves out
// of a delta is one whose job did not transition, and every corruption
// or mis-chain is rejected with ErrSnapshotMismatch.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
	"netbatch/internal/snap"
)

func snapCRC(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// bodyCRC is the CRC-32C of a snapshot's body, the word its trailer
// holds and a delta's anchors record.
func bodyCRC(data []byte) uint32 { return snapCRC(data[:len(data)-8]) }

// recordSnapshot frames b as a snapshot of this format without a
// world: its leading len(b) mod jobRecLen bytes are the data of one
// codec section, and the rest are job records. It lets the codec be
// driven with arbitrary bytes.
func recordSnapshot(b []byte) []byte {
	cut := len(b) % jobRecLen
	var e snap.Encoder
	e.U64(uint64(snapshotMagic))
	e.U64(uint64(snapshotVersion))
	e.U64(1) // configuration hash
	e.U64(2) // kind-table hash
	e.F64(60)
	e.Str("records")
	e.F64(0)
	e.I64(0)
	e.Int(2)
	e.Str("head")
	e.Bytes(b[:cut])
	e.Str(jobsSection)
	e.Bytes(b[cut:])
	e.U64(uint64(snapCRC(e.Buf)))
	return e.Buf
}

// splitSnapshot returns a snapshot's bytes before its job records, and
// the records.
func splitSnapshot(t testing.TB, data []byte) (head, recs []byte) {
	t.Helper()
	sn, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	at := len(data) - 8 - len(sn.jobs)
	return data[:at], data[at : len(data)-8]
}

// changedRecords lists the records of full that a delta from base must
// carry: those past base's prefix and those whose bytes differ; with
// all set, every record of full.
func changedRecords(base, full []byte, all bool) []int {
	var patch []int
	for i := 0; i < len(full)/jobRecLen; i++ {
		rec := full[i*jobRecLen : (i+1)*jobRecLen]
		if all || (i+1)*jobRecLen > len(base) || !bytes.Equal(rec, base[i*jobRecLen:(i+1)*jobRecLen]) {
			patch = append(patch, i)
		}
	}
	return patch
}

// encodeDelta encodes the delta between two snapshots, carrying the
// records changedRecords lists.
func encodeDelta(t testing.TB, base, full []byte, m deltaMeta, all bool) []byte {
	t.Helper()
	_, baseRecs := splitSnapshot(t, base)
	head, recs := splitSnapshot(t, full)
	return encodeSnapshotDelta(m, bodyCRC(base), bodyCRC(full), head, recs, changedRecords(baseRecs, recs, all))
}

// deltaShapes returns a random base and, by name, edits of it: in-place
// mutation, insertion, deletion, growth, shrinkage, and the degenerate
// cases. As record snapshots they change a few records, shift every
// record, lose records or gain them. It is deterministic in seed.
func deltaShapes(seed uint64, n int) (base []byte, fulls map[string][]byte) {
	r := rand.New(rand.NewPCG(seed, 11))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.UintN(256))
		}
		return b
	}
	base = randBytes(n)
	mutated := append([]byte(nil), base...)
	for i := 0; i < 20; i++ {
		mutated[r.IntN(len(mutated))] ^= 0x5a
	}
	at := r.IntN(n)
	inserted := append(append(append([]byte(nil), base[:at]...), randBytes(300)...), base[at:]...)
	at = r.IntN(n - n/16)
	deleted := append(append([]byte(nil), base[:at]...), base[at+n/16:]...)
	return base, map[string][]byte{
		"identical": append([]byte(nil), base...),
		"mutated":   mutated,
		"inserted":  inserted,
		"deleted":   deleted,
		"appended":  append(append([]byte(nil), base...), randBytes(700)...),
		"unrelated": randBytes(n / 2),
		"tiny":      randBytes(16),
		"empty":     nil,
	}
}

// TestDeltaCodecRoundTrip drives encodeSnapshotDelta/ApplySnapshotDelta
// over the deltaShapes pairs as record snapshots, with the changed
// records and with every record patched.
func TestDeltaCodecRoundTrip(t *testing.T) {
	b, fulls := deltaShapes(7, 8192)
	base := recordSnapshot(b)
	for name, f := range fulls {
		full := recordSnapshot(f)
		for _, all := range []bool{false, true} {
			delta := encodeDelta(t, base, full, deltaMeta{BaseTime: 1, BaseEvents: 10, Time: 2, Events: 20}, all)
			got, err := ApplySnapshotDelta(base, delta)
			if err != nil {
				t.Fatalf("%s (all %t): apply: %v", name, all, err)
			}
			if !bytes.Equal(got, full) {
				t.Fatalf("%s (all %t): reconstruction differs (%d vs %d bytes)", name, all, len(got), len(full))
			}
			d, err := openDelta(delta)
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			d.U64() // base CRC
			if bt, be, ft, fe := d.F64(), d.I64(), d.F64(), d.I64(); bt != 1 || be != 10 || ft != 2 || fe != 20 {
				t.Fatalf("%s: header round-trip: base (%v, %d), full (%v, %d)", name, bt, be, ft, fe)
			}
			if !IsDeltaSnapshot(delta) || IsDeltaSnapshot(full) {
				t.Fatalf("%s: magic classification wrong", name)
			}
			_, baseRecs := splitSnapshot(t, base)
			head, recs := splitSnapshot(t, full)
			if want := deltaLen(len(head), len(changedRecords(baseRecs, recs, all))); len(delta) != want {
				t.Fatalf("%s: delta is %d bytes, deltaLen says %d", name, len(delta), want)
			}
		}
	}
	// One changed record costs one patch: this is the payoff the
	// checkpointer's keyframe mode banks on.
	f := append([]byte(nil), b...)
	f[len(f)-100] ^= 1
	full := recordSnapshot(f)
	if delta := encodeDelta(t, base, full, deltaMeta{}, false); len(delta) > len(full)/4 {
		t.Fatalf("single-record edit delta is %d bytes of %d full", len(delta), len(full))
	}
}

// FuzzSnapshotDelta checks the record-patch codec on arbitrary pairs
// framed as record snapshots: the delta reconstructs full exactly,
// whether it carries only the changed records or every record, and a
// delta with any byte flipped fails with ErrSnapshotMismatch. The
// committed corpus (testdata/fuzz) seeds it with the deltaShapes pairs
// of a 512-byte base, named by shape, and a pair of records that differ
// in one float each.
func FuzzSnapshotDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, b, fb []byte, flip uint16) {
		if len(b) > 1<<20 || len(fb) > 1<<20 {
			t.Skip()
		}
		base, full := recordSnapshot(b), recordSnapshot(fb)
		var delta []byte
		for _, all := range []bool{false, true} {
			delta = encodeDelta(t, base, full, deltaMeta{BaseTime: 1, BaseEvents: 10, Time: 2, Events: 20}, all)
			got, err := ApplySnapshotDelta(base, delta)
			if err != nil {
				t.Fatalf("apply (all %t): %v", all, err)
			}
			if !bytes.Equal(got, full) {
				t.Fatalf("reconstruction (all %t) differs (%d vs %d bytes)", all, len(got), len(full))
			}
		}
		bad := append([]byte(nil), delta...)
		bad[int(flip)%len(bad)] ^= 1 << (flip >> 13)
		if _, err := ApplySnapshotDelta(base, bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("flipped byte %d: want ErrSnapshotMismatch, got %v", int(flip)%len(bad), err)
		}
	})
}

// deltaFixture runs one deterministic multi-site workload with a
// keyframed checkpoint stream and returns the base config, specs, the
// emitted checkpoints, and the straight-run fingerprint.
func deltaFixture(t *testing.T) (Config, []job.Spec, []Checkpoint, string) {
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
	}
	plain := base
	plain.Policy = core.NewResSusWaitRand(99)
	plainRes, err := Run(plain, specs)
	if err != nil {
		t.Fatal(err)
	}
	ckCfg, cks := collectCheckpoints(base, 60)
	ckCfg.CheckpointKeyframe = 4
	ckCfg.Policy = core.NewResSusWaitRand(99)
	if _, err := Run(*ckCfg, specs); err != nil {
		t.Fatal(err)
	}
	if len(*cks) < 6 {
		t.Fatalf("fixture emitted only %d checkpoints; need a keyframe cycle plus deltas", len(*cks))
	}
	return base, specs, *cks, fingerprint(plainRes)
}

// reconstructChain resolves every checkpoint of a keyframed stream to
// full snapshot bytes, mirroring what the experiments runner does with
// .ckpt/.dckpt files.
func reconstructChain(t *testing.T, cks []Checkpoint) [][]byte {
	t.Helper()
	fulls := make([][]byte, len(cks))
	for i, ck := range cks {
		if !ck.Delta {
			if IsDeltaSnapshot(ck.Data) {
				t.Fatalf("checkpoint %d: Delta flag false but bytes are a delta", i)
			}
			fulls[i] = ck.Data
			continue
		}
		if i == 0 {
			t.Fatal("first emitted checkpoint is a delta; every chain must start at a keyframe")
		}
		full, err := ApplySnapshotDelta(fulls[i-1], ck.Data)
		if err != nil {
			t.Fatalf("checkpoint %d: apply delta: %v", i, err)
		}
		fulls[i] = full
	}
	return fulls
}

// TestDeltaSnapshotChain checks the keyframed stream end to end on
// the serial kernel, which runs every checkpointed run: the emission
// pattern honors the keyframe cadence, deltas shrink the stream, and
// resuming from a keyframe, from a mid-chain delta, from the delta
// straight after a keyframe boundary, and from the last checkpoint all
// reproduce the straight run bit-identically.
func TestDeltaSnapshotChain(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		base, specs, cks, fpPlain := deltaFixture(t)
		deltas := 0
		for i, ck := range cks {
			wantFull := i%4 == 0
			if wantFull && ck.Delta {
				t.Fatalf("checkpoint %d: keyframe slot emitted a delta", i)
			}
			if ck.Delta {
				deltas++
			}
		}
		if deltas == 0 {
			t.Fatal("keyframed stream emitted no deltas (every delta fell back to full?)")
		}
		fulls := reconstructChain(t, cks)

		// A raw delta must be rejected as ResumeFrom before any state
		// is touched.
		for i, ck := range cks {
			if !ck.Delta {
				continue
			}
			bad := base
			bad.ResumeFrom = ck.Data
			if _, err := Run(bad, specs); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("checkpoint %d: raw delta resume: want ErrSnapshotMismatch, got %v", i, err)
			}
			break
		}

		picks := map[string]int{
			"keyframe":       4,            // a keyframe boundary
			"after-keyframe": 5,            // first delta of a cycle
			"mid-chain":      6,            // delta chaining through another delta
			"last":           len(cks) - 1, // whatever the stream ends on
		}
		for what, idx := range picks {
			resumed := base
			resumed.Policy = core.NewResSusWaitRand(99)
			resumed.ResumeFrom = fulls[idx]
			res, err := Run(resumed, specs)
			if err != nil {
				t.Fatalf("resume from %s (checkpoint %d, t=%v): %v", what, idx, cks[idx].Time, err)
			}
			if fp := fingerprint(res); fp != fpPlain {
				t.Fatalf("resume from %s (checkpoint %d, t=%v) diverged:\n%s",
					what, idx, cks[idx].Time, firstDiff(fpPlain, fp))
			}
		}
	})
}

// TestDeltaCorruptionRejected flips bytes in a real delta and chains it
// against the wrong base: every failure mode must be
// ErrSnapshotMismatch and never a wrong reconstruction.
func TestDeltaCorruptionRejected(t *testing.T) {
	_, _, cks, _ := deltaFixture(t)
	di := -1
	for i, ck := range cks {
		if ck.Delta {
			di = i
			break
		}
	}
	if di <= 0 {
		t.Fatal("fixture emitted no delta")
	}
	fulls := reconstructChain(t, cks)
	base, delta := fulls[di-1], cks[di].Data

	for _, at := range []int{0, 8, len(delta) / 2, len(delta) - 9, len(delta) - 1} {
		bad := append([]byte(nil), delta...)
		bad[at] ^= 0x40
		if _, err := ApplySnapshotDelta(base, bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("flip at %d: want ErrSnapshotMismatch, got %v", at, err)
		}
	}
	if _, err := ApplySnapshotDelta(delta, delta); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("delta applied to itself as base: want ErrSnapshotMismatch, got %v", err)
	}
	// Every other snapshot of the run is well formed, yet the base
	// anchor must refuse it.
	for i, other := range fulls {
		if i == di-1 {
			continue
		}
		if _, err := ApplySnapshotDelta(other, delta); !errors.Is(err, ErrSnapshotMismatch) || !strings.Contains(err.Error(), "does not chain") {
			t.Fatalf("delta applied to snapshot %d: want the base-anchor ErrSnapshotMismatch, got %v", i, err)
		}
	}
	if di+1 < len(cks) && cks[di+1].Delta {
		// Skipping a link: the next delta must refuse the earlier base.
		if _, err := ApplySnapshotDelta(base, cks[di+1].Data); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("delta applied across a gap: want ErrSnapshotMismatch, got %v", err)
		}
	}
	if _, err := ApplySnapshotDelta(nil, delta[:16]); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("truncated delta: want ErrSnapshotMismatch, got %v", err)
	}
	if _, err := ApplySnapshotDelta(nil, fulls[0]); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("full snapshot as delta: want ErrSnapshotMismatch, got %v", err)
	}
}

// TestDeltaChainMatchesKeyframes runs the multisite, faults-requeue and
// faults-kill configurations at a short cadence twice: once with every
// capture a keyframe, once with CheckpointKeyframe 4. Every delta,
// applied along its chain, must give the keyframe-only run's snapshot
// of the same boundary byte for byte. And every record whose bytes
// changed between two consecutive captures must have a StateSince at
// or after the earlier capture's time: the fact that lets a capture
// re-encode, and a delta carry, only those records.
func TestDeltaChainMatchesKeyframes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults FaultConfig
	}{
		{"multisite", FaultConfig{}},
		{"faults-requeue", FaultConfig{MTBF: 300, MTTR: 20, MaintPeriod: 200, MaintDuration: 50, Victim: VictimRequeue, Seed: 5}},
		{"faults-kill", FaultConfig{MTBF: 120, MTTR: 30, Seed: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(404, 405))
			plat, specs, err := randomFederation(r)
			if err != nil {
				t.Fatal(err)
			}
			run := func(keyframe int) ([]Checkpoint, *Result) {
				cfg := Config{
					Platform: plat,
					Initial:  federatedInitial(sched.LatencyPenalizedUtil{}),
					Policy:   core.NewResSusWaitRand(99),
					Faults:   tc.faults,
				}
				ckCfg, cks := collectCheckpoints(cfg, 30)
				ckCfg.CheckpointKeyframe = keyframe
				res, err := Run(*ckCfg, specs)
				if err != nil {
					t.Fatal(err)
				}
				return *cks, res
			}
			keys, res := run(1)
			mixed, _ := run(4)
			if tc.faults.enabled() && res.Kills == 0 {
				t.Fatal("the fault regime killed no job; raise its crash rate")
			}
			if len(keys) != len(mixed) {
				t.Fatalf("%d keyframe-only captures, %d keyframed ones", len(keys), len(mixed))
			}
			fulls := reconstructChain(t, mixed)
			deltas := 0
			for i, key := range keys {
				if key.Delta {
					t.Fatalf("capture %d: keyframe-only run emitted a delta", i)
				}
				if mixed[i].Delta {
					deltas++
				}
				if key.Time != mixed[i].Time || key.Events != mixed[i].Events || !bytes.Equal(fulls[i], key.Data) {
					t.Fatalf("capture %d (t=%v): reconstruction differs from the keyframe of the same boundary", i, key.Time)
				}
			}
			if deltas == 0 {
				t.Fatal("keyframed run emitted no delta")
			}
			changed := 0
			for i := 1; i < len(keys); i++ {
				_, prev := splitSnapshot(t, keys[i-1].Data)
				_, cur := splitSnapshot(t, keys[i].Data)
				for j := 0; j < len(prev)/jobRecLen; j++ {
					rec := cur[j*jobRecLen : (j+1)*jobRecLen]
					if bytes.Equal(prev[j*jobRecLen:(j+1)*jobRecLen], rec) {
						continue
					}
					changed++
					// StateSince is the record's second word.
					if since := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])); since < keys[i-1].Time {
						t.Fatalf("capture %d (t=%v): job %d changed with StateSince %v, before the previous capture at t=%v",
							i, keys[i].Time, j, since, keys[i-1].Time)
					}
				}
			}
			if changed == 0 {
				t.Fatal("no record changed between captures")
			}
		})
	}
}
