package sim

// Delta-snapshot contract tests: the codec round-trips arbitrary edits,
// a keyframed checkpoint stream reconstructs and resumes bit-identically
// from full and delta members alike, and every corruption or mis-chain
// is rejected with ErrSnapshotMismatch.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"testing"

	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// encodeSnapshotDelta is encodeSnapshotDeltaInto with fresh scratch
// and computed checksums.
func encodeSnapshotDelta(base, full []byte, baseTime, newTime float64, baseEvents, newEvents int64) []byte {
	return encodeSnapshotDeltaInto(nil, new(deltaIndex), base, full, snapCRC(base), snapCRC(full),
		deltaMeta{BaseTime: baseTime, BaseEvents: baseEvents, Time: newTime, Events: newEvents})
}

func snapCRC(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// deltaShapes returns a random base and, by name, the edits of it a
// snapshot stream actually produces: in-place mutation, insertion,
// deletion, growth, shrinkage, and the degenerate cases. It is
// deterministic in seed.
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
// over the deltaShapes pairs.
func TestDeltaCodecRoundTrip(t *testing.T) {
	base, fulls := deltaShapes(7, 8192)
	for name, full := range fulls {
		delta := encodeSnapshotDelta(base, full, 1, 2, 10, 20)
		got, err := ApplySnapshotDelta(base, delta)
		if err != nil {
			t.Fatalf("%s: apply: %v", name, err)
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("%s: reconstruction differs (%d vs %d bytes)", name, len(got), len(full))
		}
		d, err := openDelta(delta)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		d.U64() // base CRC
		if bt, be, ft, fe := d.F64(), d.I64(), d.F64(), d.I64(); bt != 1 || be != 10 || ft != 2 || fe != 20 {
			t.Fatalf("%s: header round-trip: base (%v, %d), full (%v, %d)", name, bt, be, ft, fe)
		}
		if !IsDeltaSnapshot(delta) || IsDeltaSnapshot(full) && len(full) > 0 {
			t.Fatalf("%s: magic classification wrong", name)
		}
	}
	// Near-identical inputs must compress hard: this is the payoff the
	// checkpointer's keyframe mode banks on.
	full := append([]byte(nil), base...)
	full[100] ^= 1
	if delta := encodeSnapshotDelta(base, full, 0, 0, 0, 0); len(delta) > len(full)/4 {
		t.Fatalf("single-byte edit delta is %d bytes of %d full", len(delta), len(full))
	}
}

// oneRecordOffPair returns a header, then nrec 153-byte records that
// are all zero but for one unique 8-byte float each. full has 40 bytes
// inserted after the header, and the floats of edits evenly spaced
// records changed.
func oneRecordOffPair(nrec, edits int) (base, full []byte) {
	const recLen, header, inserted = 153, 256, 40
	r := rand.New(rand.NewPCG(3, 5))
	head := make([]byte, header+inserted)
	for i := range head {
		head[i] = byte(r.UintN(256))
	}
	records := make([]byte, nrec*recLen)
	for i := 0; i < nrec; i++ {
		binary.LittleEndian.PutUint64(records[i*recLen:], math.Float64bits(float64(i)+0.5))
	}
	base = append(append([]byte(nil), head[:header]...), records...)
	for k := 0; k < edits; k++ {
		i := (2*k + 1) * nrec / (2 * edits)
		binary.LittleEndian.PutUint64(records[i*recLen:], math.Float64bits(-float64(i)))
	}
	return base, append(head, records...)
}

// TestDeltaOneRecordOffDiagonal pins the trust guard. After the
// insertion, diagonal 0 is 40 bytes off, yet it still agrees on the
// zero runs between the floats, so resyncing there is always possible.
// Without the guard the encoder stays on that diagonal for the rest of
// the snapshot, two literals and two copies per record (about 230 KB
// here); with it, the delta is about the 20 edits (about 1 KB).
func TestDeltaOneRecordOffDiagonal(t *testing.T) {
	base, full := oneRecordOffPair(4000, 20)
	delta := encodeSnapshotDelta(base, full, 1, 2, 10, 20)
	got, err := ApplySnapshotDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("reconstruction differs")
	}
	if len(delta) >= len(full)/50 {
		t.Fatalf("delta is %d bytes of %d full (over 2%%): resynced on a wrong diagonal?", len(delta), len(full))
	}
}

// checkpointPair returns a pair shaped like consecutive snapshots of a
// checkpoint stream: a prefix section (queues, series) that grows by
// 1 KiB in its middle, then nrec fixed-size job records. Between base
// and full, 1 in 50 records has one or two 8-byte fields edited in
// place, and a run of 1 in 20 (jobs that started in between) has every
// field but its identity rewritten.
func checkpointPair(nrec int) (base, full []byte) {
	const recLen, prefixLen = 153, 64 << 10
	r := rand.New(rand.NewPCG(13, 17))
	field := func() uint64 { return r.Uint64N(1 << (8 * (1 + r.UintN(4)))) }
	prefix := make([]byte, prefixLen)
	for i := range prefix {
		prefix[i] = byte(r.UintN(256))
	}
	records := make([]byte, nrec*recLen)
	for i := 0; i < nrec; i++ {
		rec := records[i*recLen : (i+1)*recLen]
		binary.LittleEndian.PutUint64(rec, uint64(i))
		for f := 8; f+8 <= recLen; f += 8 {
			binary.LittleEndian.PutUint64(rec[f:], field())
		}
	}
	base = append(append([]byte(nil), prefix...), records...)
	grown := make([]byte, 1024)
	for i := range grown {
		grown[i] = byte(r.UintN(256))
	}
	full = append(append(append([]byte(nil), prefix[:prefixLen/2]...), grown...), prefix[prefixLen/2:]...)
	for i := 0; i < nrec; i++ {
		rec := records[i*recLen : (i+1)*recLen]
		switch {
		case i >= nrec/2 && i < nrec/2+nrec/20:
			for f := 8; f+8 <= recLen; f += 8 {
				binary.LittleEndian.PutUint64(rec[f:], field())
			}
		case r.IntN(50) == 0:
			for e := 0; e <= r.IntN(2); e++ {
				binary.LittleEndian.PutUint64(rec[8+8*r.IntN(recLen/8-1):], field())
			}
		}
	}
	return base, append(full, records...)
}

// FuzzSnapshotDelta checks the delta codec on arbitrary pairs: the
// delta reconstructs full exactly, encoding with scratch reused after a
// larger diff (as the checkpointer does) gives the bytes of a
// fresh encode, and a delta with any byte flipped fails with
// ErrSnapshotMismatch. The committed corpus (testdata/fuzz) seeds it
// with the deltaShapes pairs of a 512-byte base, named by shape, and
// oneRecordOffPair(16, 2).
func FuzzSnapshotDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, full []byte, flip uint16) {
		// ApplySnapshotDelta rejects output lengths past its
		// plausibility bound, which the encoder may exceed on a large
		// full that repeats a short base.
		if len(full) > 1<<20 {
			t.Skip()
		}
		delta := encodeSnapshotDelta(base, full, 1, 2, 10, 20)
		got, err := ApplySnapshotDelta(base, delta)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("reconstruction differs (%d vs %d bytes)", len(got), len(full))
		}

		var idx deltaIndex
		pad := make([]byte, 4096)
		for i := range pad {
			pad[i] = byte(i * 7)
		}
		warmBase := append(append(bytes.Repeat(base, 2), full...), pad...)
		warmFull := append(append(pad[:1024:1024], full...), warmBase...)
		warm := encodeSnapshotDeltaInto(nil, &idx, warmBase, warmFull, snapCRC(warmBase), snapCRC(warmFull), deltaMeta{})
		reused := encodeSnapshotDeltaInto(warm, &idx, base, full, snapCRC(base), snapCRC(full),
			deltaMeta{BaseTime: 1, BaseEvents: 10, Time: 2, Events: 20})
		if !bytes.Equal(reused, delta) {
			t.Fatalf("encoding with reused scratch differs from a fresh encode (%d vs %d bytes)", len(reused), len(delta))
		}

		bad := append([]byte(nil), delta...)
		bad[int(flip)%len(bad)] ^= 1 << (flip >> 13)
		if _, err := ApplySnapshotDelta(base, bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("flipped byte %d: want ErrSnapshotMismatch, got %v", int(flip)%len(bad), err)
		}
	})
}

// BenchmarkSnapshotDelta times the delta encoder alone on a
// checkpointPair of 4.1 MB, the way the checkpointer calls it (block
// index reused, checksums known), and reports the delta's size as a
// fraction of full.
func BenchmarkSnapshotDelta(b *testing.B) {
	base, full := checkpointPair(26000)
	baseCRC, fullCRC := snapCRC(base), snapCRC(full)
	var idx deltaIndex
	var delta []byte
	b.SetBytes(int64(len(full)))
	b.ReportAllocs()
	for b.Loop() {
		delta = encodeSnapshotDeltaInto(nil, &idx, base, full, baseCRC, fullCRC, deltaMeta{})
	}
	b.ReportMetric(float64(len(delta))/float64(len(full)), "delta/full")
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

// TestDeltaRollingHashKeyRegression pins the rollHash.sum key layout.
// The original formula (a ^ b<<16 ^ b>>16) folded b's high bits into
// the same low half as a, so two windows whose byte sums differed
// could still collide in the block index — and with first-writer-wins
// indexing the second block was silently never indexed, turning its
// every occurrence in the new snapshot into literal bytes. The fix
// keeps a and b in disjoint halves (a is at most deltaBlock*255, well
// under 16 bits). This test hand-builds such a pair and checks both
// the key property and the observable consequence: the match rate on
// a snapshot that merely reorders the colliding content.
func TestDeltaRollingHashKeyRegression(t *testing.T) {
	// blockA: uniform 128s. a = 64*128 = 8192, b = 128*Σ(1..64) =
	// 266240 = 4<<16 | 0x1000.
	blockA := bytes.Repeat([]byte{128}, deltaBlock)
	// blockB: uniform 128s reshaped by weight-preserving edits so that
	// a = 8193 and b = 331776 = 5<<16 | 0x1000 — same low half of b,
	// b>>16 bumped by one, a bumped by one to cancel it in the old
	// key's xor. Weights are 64-i for position i.
	blockB := bytes.Repeat([]byte{128}, deltaBlock)
	for i := 0; i < 9; i++ {
		blockB[i] += 127    // weights 64..56: +127 each
		blockB[63-i] -= 127 // weights 1..9:   -127 each
	}
	blockB[9] += 58  // weight 55
	blockB[54] -= 58 // weight 10
	blockB[14] += 2  // weight 50
	blockB[44] -= 2  // weight 20
	blockB[63] += 1  // weight 1: the +1 on a

	hA, hB := rollInit(blockA), rollInit(blockB)
	if hA.a != 8192 || hA.b != 266240 || hB.a != 8193 || hB.b != 331776 {
		t.Fatalf("fixture drifted: got (%d,%d) and (%d,%d)", hA.a, hA.b, hB.a, hB.b)
	}
	oldSum := func(h rollHash) uint32 { return h.a ^ h.b<<16 ^ h.b>>16 }
	if oldSum(hA) != oldSum(hB) {
		t.Fatalf("fixture no longer collides under the historical key: %#x vs %#x",
			oldSum(hA), oldSum(hB))
	}
	if hA.sum() == hB.sum() {
		t.Fatalf("distinct windows share an index key: %#x (a differs: %d vs %d)",
			hA.sum(), hA.a, hB.a)
	}

	// Observable half: a base of A-runs then B-runs, and a new snapshot
	// with the halves swapped. Every byte of full exists verbatim in
	// base, so the delta should be a couple of long COPY ops. Under the
	// colliding key, blockB never made it into the index and its whole
	// half degenerated to literals — thousands of bytes instead of
	// hundreds.
	base := append(bytes.Repeat(blockA, 32), bytes.Repeat(blockB, 32)...)
	full := append(bytes.Repeat(blockB, 32), bytes.Repeat(blockA, 32)...)
	delta := encodeSnapshotDelta(base, full, 1, 2, 10, 20)
	got, err := ApplySnapshotDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("reordered snapshot did not reconstruct")
	}
	if len(delta) > len(full)/8 {
		t.Fatalf("reordered content matched poorly: delta %d bytes of %d full (index collision?)",
			len(delta), len(full))
	}
}
