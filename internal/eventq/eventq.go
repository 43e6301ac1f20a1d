// Package eventq implements the future event list that drives the
// discrete-event simulator: a pooled, flattened 4-ary heap of
// timestamped events with stable FIFO ordering among simultaneous
// events and O(1) cancellation.
//
// Stability matters for reproducibility: the simulator frequently
// schedules several events at the same simulated minute (e.g. a burst of
// job submissions), and the paper's metrics are sensitive to dispatch
// order. Events that compare equal in time fire in the order they were
// scheduled.
//
// Layout. Event records live in per-queue struct-of-arrays slot storage
// recycled through a free list, and the heap itself is a flat slice of
// slot indices — no per-event allocation, no container/heap interface
// dispatch, and no `any` boxing: every event's payload is two scalar
// words (A, B). Handles are generation-counted: freeing a slot bumps
// its generation, so a stale handle to a recycled slot is detected
// (Cancel returns false) rather than corrupting an unrelated event.
//
// Cancellation is lazy: a canceled event stays in the heap as a
// tombstone until it surfaces or until tombstones outnumber live events,
// at which point the heap is compacted in place (O(n) Floyd rebuild).
package eventq

import "sort"

// Event is a scheduled occurrence, returned by value from Pop.
// The simulator defines the meaning of Kind and the payload words;
// eventq only orders and delivers them.
type Event struct {
	// Time is the simulated time (minutes) at which the event fires.
	Time float64
	// Kind discriminates the payload for the consumer.
	Kind int
	// A and B are the payload words: job, pool, site or machine indices.
	A, B int64
}

// Handle identifies a scheduled event for cancellation. It is a value:
// a slot index plus the slot's generation at scheduling time. The zero
// Handle identifies nothing (generations start at 1).
type Handle struct {
	slot int32
	gen  uint32
}

// minCompact is the heap size below which tombstone compaction is not
// worth triggering.
const minCompact = 64

// Queue is a future event list. The zero value is NOT ready to use;
// construct with New.
type Queue struct {
	// Slot storage (struct-of-arrays, indexed by slot number). seq is
	// the scheduling-order stamp that breaks ties among events with
	// equal Time: the n-th Schedule gets n, so simultaneous events fire
	// in the order they were scheduled.
	time     []float64
	seq      []uint64
	kind     []int32
	a, b     []int64
	gen      []uint32
	canceled []bool

	// free lists recycled slots; heap is the 4-ary implicit heap of
	// slot indices.
	free []int32
	heap []int32

	// next is the scheduling-order counter: the stamp of the most
	// recent Schedule.
	next uint64
	// live counts scheduled, non-canceled events. Canceled events stay
	// in the heap as tombstones until popped or compacted away.
	live int
}

// New returns an empty queue.
func New() *Queue {
	return &Queue{}
}

// Live returns the number of pending (non-canceled) events.
func (q *Queue) Live() int { return q.live }

// Len returns the physical heap size: pending events plus canceled
// tombstones not yet compacted away. Len()-Live() is the tombstone
// count; compaction keeps it at most Live() (above a small minimum).
func (q *Queue) Len() int { return len(q.heap) }

// Tombstones returns the number of canceled events still occupying
// heap slots (Len minus Live) — the lazy-deletion debt the compactor
// bounds. Exposed for observability gauges.
func (q *Queue) Tombstones() int { return len(q.heap) - q.live }

// alloc takes a slot from the free list (or grows the storage) and
// fills it. The slot's generation is preserved across reuse and only
// bumped on free, so handles to prior tenants stay invalid.
func (q *Queue) alloc(t float64, kind int, a, b int64, seq uint64) int32 {
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		q.time[s] = t
		q.seq[s] = seq
		q.kind[s] = int32(kind)
		q.a[s] = a
		q.b[s] = b
		q.canceled[s] = false
		return s
	}
	s := int32(len(q.time))
	q.time = append(q.time, t)
	q.seq = append(q.seq, seq)
	q.kind = append(q.kind, int32(kind))
	q.a = append(q.a, a)
	q.b = append(q.b, b)
	q.gen = append(q.gen, 1)
	q.canceled = append(q.canceled, false)
	return s
}

// freeSlot returns a slot to the free list, invalidating outstanding
// handles by bumping the generation (which skips 0, the nil-handle
// sentinel, on wraparound).
func (q *Queue) freeSlot(s int32) {
	g := q.gen[s] + 1
	if g == 0 {
		g = 1
	}
	q.gen[s] = g
	q.free = append(q.free, s)
}

// less orders slots by (time, scheduling order): the FEL's total
// firing order.
func (q *Queue) less(x, y int32) bool {
	if q.time[x] != q.time[y] {
		return q.time[x] < q.time[y]
	}
	return q.seq[x] < q.seq[y]
}

// push appends a slot to the 4-ary heap and sifts it up.
func (q *Queue) push(s int32) {
	q.heap = append(q.heap, s)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !q.less(s, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
}

// down sifts the slot at heap position i down to its place.
func (q *Queue) down(i int) {
	h := q.heap
	n := len(h)
	s := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q.less(h[j], h[m]) {
				m = j
			}
		}
		if !q.less(h[m], s) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = s
}

// popTop removes and returns the heap's minimum slot.
func (q *Queue) popTop() int32 {
	h := q.heap
	s := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.heap = h[:n]
	if n > 0 {
		q.down(0)
	}
	return s
}

// compact filters every tombstone out of the heap, frees their slots,
// and rebuilds the heap property in O(n) (Floyd). Triggered by Cancel
// when tombstones outnumber live events.
func (q *Queue) compact() {
	h := q.heap
	w := 0
	for _, s := range h {
		if q.canceled[s] {
			q.freeSlot(s)
			continue
		}
		h[w] = s
		w++
	}
	q.heap = h[:w]
	for i := (w - 2) >> 2; i >= 0; i-- {
		q.down(i)
	}
}

// Schedule adds an event at time t. It returns a handle that can cancel
// the event. Scheduling an event in the past relative to previously
// popped events is the caller's responsibility to avoid; the queue
// itself only orders what it holds.
func (q *Queue) Schedule(t float64, kind int, a, b int64) Handle {
	q.next++
	s := q.alloc(t, kind, a, b, q.next)
	q.push(s)
	q.live++
	return Handle{slot: s, gen: q.gen[s]}
}

// Cancel removes the event identified by h from the queue. Canceling an
// already-fired, already-canceled, or otherwise stale handle is a no-op
// returning false: the generation check detects handles whose slot has
// been freed (and possibly recycled) since they were issued.
func (q *Queue) Cancel(h Handle) bool {
	if h.gen == 0 || int(h.slot) >= len(q.gen) || q.gen[h.slot] != h.gen || q.canceled[h.slot] {
		return false
	}
	q.canceled[h.slot] = true
	q.live--
	if tomb := len(q.heap) - q.live; tomb > q.live && len(q.heap) >= minCompact {
		q.compact()
	}
	return true
}

// Pop removes and returns the earliest pending event. ok is false when
// the queue is empty. Among events with equal time, the one scheduled
// first is returned first. The event's slot is recycled immediately;
// outstanding handles to it become stale.
func (q *Queue) Pop() (Event, bool) {
	for len(q.heap) > 0 {
		s := q.popTop()
		if q.canceled[s] {
			q.freeSlot(s)
			continue
		}
		ev := Event{Time: q.time[s], Kind: int(q.kind[s]), A: q.a[s], B: q.b[s]}
		q.freeSlot(s)
		q.live--
		return ev, true
	}
	return Event{}, false
}

// SavedEvent is a pending event exported for checkpointing: the
// schedulable payload plus the scheduling-order stamp that positions
// the event among simultaneous ones. Restoring a SavedEvent reproduces
// the event's firing position bit-identically.
type SavedEvent struct {
	Time float64
	Kind int
	A, B int64
	Seq  uint64
}

// Export returns every pending (non-canceled) event in firing order.
// The queue is not modified; canceled events are omitted (they would
// never fire).
func (q *Queue) Export() []SavedEvent {
	out := make([]SavedEvent, 0, q.live)
	for _, s := range q.heap {
		if q.canceled[s] {
			continue
		}
		out = append(out, SavedEvent{
			Time: q.time[s], Kind: int(q.kind[s]),
			A: q.a[s], B: q.b[s], Seq: q.seq[s],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Restore reinstates an exported event with its exact scheduling-order
// stamp, so the restored queue fires it in the same position relative
// to both existing events and events scheduled later. Unlike Schedule
// it does not advance the scheduling-order counter; pair it with SetSeq
// when rebuilding a queue from a checkpoint.
func (q *Queue) Restore(sev SavedEvent) Handle {
	s := q.alloc(sev.Time, sev.Kind, sev.A, sev.B, sev.Seq)
	q.push(s)
	q.live++
	return Handle{slot: s, gen: q.gen[s]}
}

// Seq returns the scheduling-order counter: the number of Schedule
// calls so far. Checkpoints save it so a restored queue stamps future
// events exactly as a never-interrupted queue would.
func (q *Queue) Seq() uint64 { return q.next }

// SetSeq overwrites the scheduling-order counter (see Seq).
func (q *Queue) SetSeq(n uint64) { q.next = n }

// Cap returns the allocated slot count — the high-water mark of
// concurrently pending events. Tests use it to assert that slot reuse
// keeps storage bounded under churn.
func (q *Queue) Cap() int { return len(q.time) }
