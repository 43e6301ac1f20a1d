package eventq

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := New()
	if q.Live() != 0 || q.Len() != 0 {
		t.Fatalf("Live = %d, Len = %d", q.Live(), q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue should return ok=false")
	}
}

func TestTimeOrdering(t *testing.T) {
	q := New()
	q.Schedule(3, 1, 'c', 0)
	q.Schedule(1, 1, 'a', 0)
	q.Schedule(2, 1, 'b', 0)
	var got string
	for ev, ok := q.Pop(); ok; ev, ok = q.Pop() {
		got += string(rune(ev.A))
	}
	if got != "abc" {
		t.Fatalf("order = %q", got)
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	q := New()
	for i := 0; i < 100; i++ {
		q.Schedule(5, 0, int64(i), 0)
	}
	for i := 0; i < 100; i++ {
		ev, ok := q.Pop()
		if !ok {
			t.Fatal("queue exhausted early")
		}
		if ev.A != int64(i) {
			t.Fatalf("equal-time events out of FIFO order: got %v at pos %d", ev.A, i)
		}
	}
}

func TestCancel(t *testing.T) {
	q := New()
	h1 := q.Schedule(1, 0, 'a', 0)
	q.Schedule(2, 0, 'b', 0)
	if !q.Cancel(h1) {
		t.Fatal("Cancel returned false for live event")
	}
	if q.Live() != 1 {
		t.Fatalf("Live after cancel = %d", q.Live())
	}
	if q.Cancel(h1) {
		t.Fatal("double Cancel should return false")
	}
	ev, ok := q.Pop()
	if !ok || ev.A != 'b' {
		t.Fatalf("Pop after cancel = %+v, %v", ev, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("canceled event leaked out")
	}
}

func TestCancelAfterPop(t *testing.T) {
	q := New()
	h := q.Schedule(1, 0, 0, 0)
	if _, ok := q.Pop(); !ok {
		t.Fatal("expected event")
	}
	if q.Cancel(h) {
		t.Fatal("Cancel after Pop should return false")
	}
	if q.Live() != 0 {
		t.Fatalf("Live = %d", q.Live())
	}
}

func TestCancelZeroHandle(t *testing.T) {
	q := New()
	if q.Cancel(Handle{}) {
		t.Fatal("Cancel of zero handle should be a no-op")
	}
}

func TestStaleHandleAfterSlotReuse(t *testing.T) {
	// A handle to a popped event must stay invalid even after its slot
	// is recycled for a new event: the generation check detects it.
	q := New()
	h := q.Schedule(1, 0, 0, 0)
	if _, ok := q.Pop(); !ok {
		t.Fatal("expected event")
	}
	// The freed slot is recycled for the next schedule.
	h2 := q.Schedule(2, 0, 0, 0)
	if q.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1 (slot reuse)", q.Cap())
	}
	if q.Cancel(h) {
		t.Fatal("stale handle canceled the slot's new tenant")
	}
	if q.Live() != 1 {
		t.Fatalf("Live = %d after stale cancel", q.Live())
	}
	if !q.Cancel(h2) {
		t.Fatal("fresh handle to recycled slot should cancel")
	}
}

func TestKindAndTimePreserved(t *testing.T) {
	q := New()
	q.Schedule(7.25, 42, 3, 9)
	ev, ok := q.Pop()
	if !ok || ev.Time != 7.25 || ev.Kind != 42 || ev.A != 3 || ev.B != 9 {
		t.Fatalf("event fields = %+v, %v", ev, ok)
	}
}

func TestCompaction(t *testing.T) {
	// Canceling more than half the queue must shed the tombstones:
	// Len() (physical size) collapses toward Live().
	q := New()
	handles := make([]Handle, 0, 4*minCompact)
	for i := 0; i < 4*minCompact; i++ {
		handles = append(handles, q.Schedule(float64(i), 0, int64(i), 0))
	}
	// Cancel even slots: tombstones never exceed live, no compaction yet.
	for i := 0; i < len(handles); i += 2 {
		q.Cancel(handles[i])
	}
	live := len(handles) / 2
	if q.Live() != live {
		t.Fatalf("Live = %d, want %d", q.Live(), live)
	}
	// One more cancel tips tombstones over live and triggers compaction.
	q.Cancel(handles[1])
	if q.Len() != q.Live() {
		t.Fatalf("after compaction Len = %d, want Live = %d", q.Len(), q.Live())
	}
	// Order is preserved: remaining odd slots (except 1) pop in order.
	prev := -1.0
	n := 0
	for ev, ok := q.Pop(); ok; ev, ok = q.Pop() {
		if ev.Time <= prev {
			t.Fatalf("pop order broken after compaction: %v after %v", ev.Time, prev)
		}
		prev = ev.Time
		n++
	}
	if n != live-1 {
		t.Fatalf("drained %d events, want %d", n, live-1)
	}
}

func TestPopDrainsMonotonically(t *testing.T) {
	// Property: popping a randomly scheduled queue yields nondecreasing
	// times, and every live event is delivered exactly once.
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, seed))
		n := int(nRaw)%200 + 1
		q := New()
		times := make([]float64, 0, n)
		handles := make([]Handle, 0, n)
		for i := 0; i < n; i++ {
			tm := r.Float64() * 1000
			handles = append(handles, q.Schedule(tm, 0, int64(i), 0))
			times = append(times, tm)
		}
		// Cancel a random subset.
		kept := make([]float64, 0, n)
		for i, h := range handles {
			if r.Float64() < 0.3 {
				q.Cancel(h)
			} else {
				kept = append(kept, times[i])
			}
		}
		if q.Live() != len(kept) {
			return false
		}
		got := make([]float64, 0, len(kept))
		prev := -1.0
		for ev, ok := q.Pop(); ok; ev, ok = q.Pop() {
			if ev.Time < prev {
				return false
			}
			prev = ev.Time
			if ev.Time != times[ev.A] {
				return false
			}
			got = append(got, ev.Time)
		}
		if len(got) != len(kept) {
			return false
		}
		sort.Float64s(kept)
		for i := range kept {
			if got[i] != kept[i] {
				return false
			}
		}
		return q.Live() == 0
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedScheduleAndPop(t *testing.T) {
	q := New()
	q.Schedule(10, 0, 0, 0)
	ev, _ := q.Pop()
	if ev.Time != 10 {
		t.Fatal("wrong first event")
	}
	// Schedule later events after popping; simulator does this constantly.
	q.Schedule(20, 0, 0, 0)
	q.Schedule(15, 0, 0, 0)
	if ev, _ := q.Pop(); ev.Time != 15 {
		t.Fatalf("got %v, want 15", ev.Time)
	}
	if ev, _ := q.Pop(); ev.Time != 20 {
		t.Fatalf("got %v, want 20", ev.Time)
	}
}

// TestPoolReuseStress storms the queue with randomized schedule /
// cancel / pop bursts and asserts the generation contract throughout:
// a handle cancels successfully exactly once, handles of popped or
// canceled events stay dead forever (even after their slot is recycled
// by later traffic), and the live count matches an exact model. Run
// under -race in CI; the point here is the slot-recycling invariants.
func TestPoolReuseStress(t *testing.T) {
	r := rand.New(rand.NewPCG(0xfeed, 0xbeef))
	q := New()
	type tracked struct {
		h    Handle
		dead bool // popped or canceled
	}
	var evs []tracked
	byA := make(map[int64]int) // event A-word -> index in evs
	live := 0
	next := int64(0)
	for round := 0; round < 2000; round++ {
		switch r.IntN(3) {
		case 0: // schedule burst
			for n := r.IntN(8); n >= 0; n-- {
				h := q.Schedule(float64(r.IntN(64)), 1, next, 0)
				byA[next] = len(evs)
				evs = append(evs, tracked{h: h})
				next++
				live++
			}
		case 1: // cancel storm, including repeats and stale handles
			for n := r.IntN(8); n >= 0 && len(evs) > 0; n-- {
				i := r.IntN(len(evs))
				want := !evs[i].dead
				if got := q.Cancel(evs[i].h); got != want {
					t.Fatalf("round %d: Cancel(#%d) = %v, want %v", round, i, got, want)
				}
				if want {
					evs[i].dead = true
					live--
				}
			}
		case 2: // pop burst
			for n := r.IntN(8); n >= 0; n-- {
				ev, ok := q.Pop()
				if !ok {
					if live != 0 {
						t.Fatalf("round %d: Pop empty with %d live", round, live)
					}
					break
				}
				i := byA[ev.A]
				if evs[i].dead {
					t.Fatalf("round %d: popped dead event %d", round, ev.A)
				}
				evs[i].dead = true
				live--
				if q.Cancel(evs[i].h) {
					t.Fatalf("round %d: canceled already-popped event %d", round, ev.A)
				}
			}
		}
		if q.Live() != live {
			t.Fatalf("round %d: Live = %d, want %d", round, q.Live(), live)
		}
		if q.Len() > 2*q.Live()+minCompact {
			t.Fatalf("round %d: tombstones unbounded: Len = %d, Live = %d", round, q.Len(), q.Live())
		}
	}
	// Slot storage is bounded by peak concurrency, not total traffic.
	if q.Cap() >= int(next) {
		t.Fatalf("no slot reuse: Cap = %d after %d events", q.Cap(), next)
	}
}

func BenchmarkScheduleAndPop(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	q := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Schedule(r.Float64()*1e6, 0, 0, 0)
		if q.Live() > 1024 {
			for j := 0; j < 512; j++ {
				q.Pop()
			}
		}
	}
}

// BenchmarkCancel times lazy cancellation, compaction included. Events
// are scheduled in fixed rounds with the timer stopped, so the queue,
// and the benchmark's memory, stay the same size for any b.N.
func BenchmarkCancel(b *testing.B) {
	const round = 4096
	q := New()
	handles := make([]Handle, round)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += round {
		n := min(round, b.N-done)
		b.StopTimer()
		for i := range n {
			handles[i] = q.Schedule(float64(done+i), 0, 0, 0)
		}
		b.StartTimer()
		for _, h := range handles[:n] {
			q.Cancel(h)
		}
	}
}

func TestExportRestoreRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	a, b := New(), New()
	var cancelA, cancelB []Handle
	for i := 0; i < 200; i++ {
		tm := float64(r.IntN(20)) // force plenty of ties
		ha := a.Schedule(tm, i%5, int64(i), 0)
		hb := b.Schedule(tm, i%5, int64(i), 0)
		if i%7 == 0 {
			cancelA = append(cancelA, ha)
			cancelB = append(cancelB, hb)
		}
	}
	for i := range cancelA {
		a.Cancel(cancelA[i])
		b.Cancel(cancelB[i])
	}
	// Rebuild a fresh queue from a's export; b is the straight control.
	saved := a.Export()
	q := New()
	for _, sev := range saved {
		q.Restore(sev)
	}
	q.SetSeq(a.Seq())
	if q.Live() != b.Live() {
		t.Fatalf("restored Live %d != straight %d", q.Live(), b.Live())
	}
	// Future scheduling must interleave with restored events exactly as
	// it would have with the originals.
	for i := 0; i < 50; i++ {
		tm := float64(r.IntN(20))
		q.Schedule(tm, 9, int64(1000+i), 0)
		b.Schedule(tm, 9, int64(1000+i), 0)
	}
	for {
		x, okx := q.Pop()
		y, oky := b.Pop()
		if !okx || !oky {
			if okx != oky {
				t.Fatal("queues drained at different lengths")
			}
			break
		}
		if x.Time != y.Time || x.Kind != y.Kind || x.A != y.A {
			t.Fatalf("restored pop (%v,%d,%v) != straight (%v,%d,%v)",
				x.Time, x.Kind, x.A, y.Time, y.Kind, y.A)
		}
	}
}

func TestExportIsSortedAndPure(t *testing.T) {
	q := New()
	for i := 0; i < 100; i++ {
		q.Schedule(float64(100-i%10), 0, int64(i), 0)
	}
	before := q.Live()
	saved := q.Export()
	if q.Live() != before {
		t.Fatal("Export modified the queue")
	}
	if len(saved) != before {
		t.Fatalf("Export returned %d events for %d pending", len(saved), before)
	}
	for i := 1; i < len(saved); i++ {
		if saved[i].Time < saved[i-1].Time {
			t.Fatal("Export not in firing order")
		}
	}
}
