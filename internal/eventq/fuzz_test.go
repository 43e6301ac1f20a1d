package eventq

import (
	"testing"
)

// FuzzQueueOps model-checks the future event list against a naive
// reference implementation. The input bytes encode an op stream —
// schedule (with a small time domain to force plenty of simultaneous
// events), cancel, pop — and after replaying it the queue is drained.
// Checked invariants:
//
//   - Pop returns exactly the live event with the least (time, schedule
//     order): earliest-first, FIFO among ties (the determinism contract
//     the simulator's reproducibility rests on).
//   - Cancel reports true exactly once per scheduled event and popped
//     events can no longer be canceled — including when the pooled
//     queue has recycled the event's slot (generation check).
//   - Live always equals the number of scheduled-not-canceled-not-popped
//     events, and tombstone compaction keeps Len bounded.
func FuzzQueueOps(f *testing.F) {
	// Seed corpus: schedule bursts with ties, interleaved cancels and
	// pops, duplicate cancels, pop-from-empty.
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 0, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 10, 0, 3, 1, 0, 2, 0, 0, 3, 1, 1, 1, 1, 2, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 255, 0, 128, 1, 2, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		type modelEv struct {
			time     float64
			seq      int
			canceled bool
			popped   bool
		}
		q := New()
		var model []modelEv
		var handles []Handle

		expectedNext := func() int {
			best := -1
			for i := range model {
				if model[i].canceled || model[i].popped {
					continue
				}
				if best == -1 || model[i].time < model[best].time {
					best = i // earlier seq wins ties because we scan in order
				}
			}
			return best
		}
		liveCount := func() int {
			n := 0
			for i := range model {
				if !model[i].canceled && !model[i].popped {
					n++
				}
			}
			return n
		}
		pop := func() {
			want := expectedNext()
			ev, ok := q.Pop()
			if want == -1 {
				if ok {
					t.Fatalf("Pop returned %+v from an empty queue", ev)
				}
				return
			}
			if !ok {
				t.Fatalf("Pop returned nothing with %d live events", liveCount())
			}
			if ev.Kind != model[want].seq || ev.Time != model[want].time {
				t.Fatalf("Pop returned (t=%v, seq=%d), want (t=%v, seq=%d)",
					ev.Time, ev.Kind, model[want].time, model[want].seq)
			}
			model[want].popped = true
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 3 {
			case 0:
				// Schedule; time domain 0..15 forces simultaneous events.
				tm := float64(arg % 16)
				seq := len(model)
				handles = append(handles, q.Schedule(tm, seq, 0, 0))
				model = append(model, modelEv{time: tm, seq: seq})
			case 1:
				if len(handles) == 0 {
					continue
				}
				k := int(arg) % len(handles)
				got := q.Cancel(handles[k])
				want := !model[k].canceled && !model[k].popped
				if got != want {
					t.Fatalf("Cancel(%d) = %v, want %v", k, got, want)
				}
				if want {
					model[k].canceled = true
				}
			case 2:
				pop()
			}
			if q.Live() != liveCount() {
				t.Fatalf("Live = %d, want %d", q.Live(), liveCount())
			}
			if q.Len() < q.Live() {
				t.Fatalf("Len = %d < Live = %d", q.Len(), q.Live())
			}
		}
		// Drain: the remaining events must come out in (time, seq) order.
		for liveCount() > 0 {
			pop()
		}
		if ev, ok := q.Pop(); ok {
			t.Fatalf("drained queue popped %+v", ev)
		}
		if q.Live() != 0 {
			t.Fatalf("drained queue Live = %d", q.Live())
		}
	})
}

// FuzzQueueDiff differentially fuzzes the pooled queue against the
// retired container/heap implementation (legacy_test.go). The op
// stream extends FuzzQueueOps' encoding with schedules of other kinds
// and payload words; with clock schedules, which advance a per-kind
// clock so events fill that kind's lane and fall back to the heap when
// a plain schedule of the kind has run ahead of the clock; with cancel
// bursts, which drive compaction while tombstones sit in lanes; and
// with a rebuild of the pooled queue through Export, Restore (in a
// rotated order, so restored events land in lanes and the heap) and
// SetSeq. Every observable — pop stream, cancel results, live counts,
// export contents — must match exactly, and a cancel never leaves
// tombstones outnumbering live events past the compaction floor.
func FuzzQueueDiff(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 0, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 10, 0, 3, 1, 0, 2, 0, 0, 3, 1, 1, 1, 1, 2, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 255, 0, 128, 1, 2, 2, 0, 2, 0})
	f.Add([]byte{3, 9, 3, 9, 4, 9, 0, 9, 2, 0, 2, 0, 1, 0, 2, 0})
	f.Add([]byte{5, 3, 5, 6, 0, 15, 5, 0, 5, 9, 7, 1, 2, 0, 5, 4, 1, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := New()
		lq := newLegacyQueue()
		var handles []Handle
		var lhandles []legacyHandle
		var clock [4]float64
		seq := int64(0)
		schedule := func(tm float64, kd int, b int64) {
			handles = append(handles, q.Schedule(tm, kd, seq, b))
			lhandles = append(lhandles, lq.Schedule(tm, kd, seq, b))
			seq++
		}
		cancel := func(k int) {
			got, want := q.Cancel(handles[k]), lq.Cancel(lhandles[k])
			if got != want {
				t.Fatalf("Cancel(%d): pooled %v, legacy %v", k, got, want)
			}
			if q.Len() >= minCompact && q.Tombstones() > q.Live() {
				t.Fatalf("after Cancel(%d): %d tombstones, %d live", k, q.Tombstones(), q.Live())
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 8 {
			case 0: // plain schedule
				schedule(float64(arg%16), 1, 0)
			case 1: // cancel
				if len(handles) > 0 {
					cancel(int(arg) % len(handles))
				}
			case 2: // pop
				ev, ok := q.Pop()
				lev, lok := lq.Pop()
				if ok != lok || ev != lev {
					t.Fatalf("Pop: pooled (%+v,%v), legacy (%+v,%v)", ev, ok, lev, lok)
				}
			case 3, 4: // schedule another kind, with a second payload word
				schedule(float64(arg%16), int(op%8)-1, int64(arg))
			case 5: // clock schedule: kind 1..3 at its clock, advanced 0..3
				kd := 1 + int(arg)%3
				clock[kd] += float64(arg / 3 % 4)
				schedule(clock[kd], kd, 0)
			case 6: // cancel burst: 16 consecutive handles from arg
				for j := 0; j < 16 && len(handles) > 0; j++ {
					cancel((int(arg) + j) % len(handles))
				}
			case 7: // rebuild the pooled queue from its export
				ex := q.Export()
				nq := New()
				for j := range handles {
					handles[j] = Handle{}
				}
				for j := range ex {
					sev := ex[(int(arg)+j)%len(ex)]
					handles[sev.A] = nq.Restore(sev)
				}
				nq.SetSeq(q.Seq())
				q = nq
			}
			if q.Live() != lq.Live() {
				t.Fatalf("Live: pooled %d, legacy %d", q.Live(), lq.Live())
			}
		}
		// Exports must agree exactly (same events, same firing order).
		ex, lex := q.Export(), lq.Export()
		if len(ex) != len(lex) {
			t.Fatalf("Export length: pooled %d, legacy %d", len(ex), len(lex))
		}
		for i := range ex {
			if ex[i] != lex[i] {
				t.Fatalf("Export[%d]: pooled %+v, legacy %+v", i, ex[i], lex[i])
			}
		}
		// Drain both to the end.
		for {
			ev, ok := q.Pop()
			lev, lok := lq.Pop()
			if ok != lok || ev != lev {
				t.Fatalf("drain: pooled (%+v,%v), legacy (%+v,%v)", ev, ok, lev, lok)
			}
			if !ok {
				break
			}
		}
	})
}
