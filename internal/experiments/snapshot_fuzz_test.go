package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"netbatch/internal/job"
	"netbatch/internal/sim"
)

// snapshotFuzz is FuzzSnapshotBody's fixture: one faulted 3-site cell,
// its configuration and workload, and the checkpoints of a keyframed
// run of it (every third one full) with each one's full bytes.
type snapshotFuzz struct {
	cfg   func() sim.Config
	specs []job.Spec
	cks   []sim.Checkpoint
	fulls [][]byte
	// runAlloc is the bytes a straight run of the cell allocates.
	runAlloc uint64
}

var snapshotFuzzFixture = sync.OnceValues(func() (*snapshotFuzz, error) {
	sc := FaultScenario("fed3-faults", 3, sim.VictimRequeue)
	pf := multiSitePolicies()[2]
	tr, err := sc.Trace(42, 0.01)
	if err != nil {
		return nil, err
	}
	plat, err := sc.Platform(0.01)
	if err != nil {
		return nil, err
	}
	fx := &snapshotFuzz{specs: tr.Jobs}
	res, err := sim.Run(buildCellConfig(&sc, pf, 2, 42, plat, Options{}), fx.specs)
	if err != nil {
		return nil, err
	}
	// A resumed run's work is bounded by MaxTime, not by its snapshot:
	// state no run reaches, such as a waiting job missing from every
	// queue or a completion moved later, keeps the loop sampling until
	// MaxTime, where it fails. So the cell runs with MaxTime at four
	// times its makespan, the horizon the allocation bound is stated
	// for.
	maxTime := 4 * res.Makespan
	fx.cfg = func() sim.Config {
		cfg := buildCellConfig(&sc, pf, 2, 42, plat, Options{})
		cfg.MaxTime = maxTime
		return cfg
	}
	before := allocated()
	if _, err := sim.Run(fx.cfg(), fx.specs); err != nil {
		return nil, err
	}
	fx.runAlloc = allocated() - before
	cfg := fx.cfg()
	cfg.CheckpointEvery = 1440
	cfg.CheckpointKeyframe = 3
	cfg.CheckpointSink = func(ck sim.Checkpoint) error {
		fx.cks = append(fx.cks, ck)
		return nil
	}
	if _, err := sim.Run(cfg, fx.specs); err != nil {
		return nil, err
	}
	for i, ck := range fx.cks {
		full := ck.Data
		if ck.Delta {
			if full, err = sim.ApplySnapshotDelta(fx.fulls[i-1], ck.Data); err != nil {
				return nil, err
			}
		}
		fx.fulls = append(fx.fulls, full)
	}
	if len(fx.cks) < 3 || !fx.cks[1].Delta {
		return nil, fmt.Errorf("fixture emitted %d checkpoints; want a keyframe and deltas", len(fx.cks))
	}
	return fx, nil
})

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// castagnoliTable is the CRC-32C table of the snapshot and delta
// trailers.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// withTrailer returns body followed by its CRC-32C trailer, as every
// snapshot and delta ends.
func withTrailer(body []byte) []byte {
	return binary.LittleEndian.AppendUint64(body, uint64(crc32.Checksum(body, castagnoliTable)))
}

// xorAt returns a copy of data with flip XORed in at offset at (taken
// modulo len(data)), clipped to the end.
func xorAt(data []byte, at uint32, flip []byte) (out []byte, from, to int) {
	out = append([]byte(nil), data...)
	if len(out) == 0 {
		return out, 0, 0
	}
	from = int(at % uint32(len(out)))
	to = min(from+len(flip), len(out))
	for i := from; i < to; i++ {
		out[i] ^= flip[i-from]
	}
	return out, from, to
}

// FuzzSnapshotBody mutates the bodies of a real run's format-6
// snapshots and NBSD-2 deltas, XORing bytes in at a fuzzed offset, and
// frames the result again: the CRC-32C trailer is recomputed, and when
// the edit lies inside a delta's verbatim head its reconstruction
// anchor is recomputed from the same edit of the snapshot it rebuilds
// (the anchor is that snapshot's body CRC).
// The bytes then go through every reader — sim.Run resuming from a
// snapshot (under a 20 s deadline), ApplySnapshotDelta on a delta, and
// LoadCheckpoint on a checkpoint directory holding the edited file —
// and each may only succeed or fail with ErrSnapshotMismatch: never
// panic or hang. With MaxTime at four times the cell's makespan, a
// resume may allocate at most twice what a straight run of the cell
// allocates plus 16 bytes per snapshot byte, and ApplySnapshotDelta at
// most twice its inputs' size plus 1 MiB.
//
// A delta's body starts with seven words (magic, version, base CRC,
// the two boundaries), then its head's length word and the head: the
// new snapshot's bytes before its job records, byte for byte.
func FuzzSnapshotBody(f *testing.F) {
	fx, err := snapshotFuzzFixture()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, pick uint8, at uint32, flip []byte) {
		if len(flip) > 256 {
			t.Skip()
		}
		i := int(pick) % len(fx.cks)
		ck := fx.cks[i]
		if !ck.Delta {
			body, _, _ := xorAt(ck.Data[:len(ck.Data)-8], at, flip)
			data := withTrailer(body)
			checkResume(t, fx, data)
			checkLoad(t, fx, i, data)
			return
		}
		body, from, to := xorAt(ck.Data[:len(ck.Data)-8], at, flip)
		const headAt = 8 * 8
		headLen := int(binary.LittleEndian.Uint64(ck.Data[headAt-8:]))
		if from >= headAt && to <= headAt+headLen {
			// The edit lands in the head, so the delta now rebuilds the
			// snapshot with the same edit: give it that snapshot's CRC.
			want := fx.fulls[i]
			rebuilt := append([]byte(nil), want[:len(want)-8]...)
			copy(rebuilt[from-headAt:], body[from:to])
			binary.LittleEndian.PutUint64(body[len(body)-8:], uint64(crc32.Checksum(rebuilt, castagnoliTable)))
		}
		delta := withTrailer(body)
		base := fx.fulls[i-1]
		before := allocated()
		out, err := sim.ApplySnapshotDelta(base, delta)
		if a, bound := allocated()-before, 2*uint64(len(base)+len(delta))+1<<20; a > bound {
			t.Fatalf("ApplySnapshotDelta allocated %d bytes, bound %d", a, bound)
		}
		switch {
		case err == nil:
			checkResume(t, fx, out)
		case !errors.Is(err, sim.ErrSnapshotMismatch):
			t.Fatalf("ApplySnapshotDelta: %v, want nil or ErrSnapshotMismatch", err)
		}
		checkLoad(t, fx, i, delta)
	})
}

// checkResume resumes the fixture's cell from data.
func checkResume(t *testing.T, fx *snapshotFuzz, data []byte) {
	t.Helper()
	type outcome struct {
		err   error
		alloc uint64
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: fmt.Errorf("resume panicked: %v", r)}
			}
		}()
		cfg := fx.cfg()
		cfg.ResumeFrom = data
		before := allocated()
		_, err := sim.Run(cfg, fx.specs)
		done <- outcome{err, allocated() - before}
	}()
	select {
	case o := <-done:
		if o.err != nil && !errors.Is(o.err, sim.ErrSnapshotMismatch) {
			t.Fatalf("resume: %v, want nil or ErrSnapshotMismatch", o.err)
		}
		if bound := 2*fx.runAlloc + 16*uint64(len(data)); o.alloc > bound {
			t.Fatalf("resume allocated %d bytes, bound %d", o.alloc, bound)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("resume still running after 20s")
	}
}

// checkLoad writes the fixture's checkpoint files up to file i, with
// data as file i, and loads file i.
func checkLoad(t *testing.T, fx *snapshotFuzz, i int, data []byte) {
	t.Helper()
	prefix := cellCheckpointPrefix(t.TempDir(), "fed3-faults", 2, 0)
	var path string
	for k, ck := range fx.cks[:i+1] {
		ext, b := ".ckpt", ck.Data
		if ck.Delta {
			ext = ".dckpt"
		}
		if k == i {
			b = data
		}
		path = fmt.Sprintf("%s_t%014.1f%s", prefix, ck.Time, ext)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadCheckpoint(path); err != nil && !errors.Is(err, sim.ErrSnapshotMismatch) {
		t.Fatalf("LoadCheckpoint: %v, want nil or ErrSnapshotMismatch", err)
	}
}
