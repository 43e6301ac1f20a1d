// Package eventq implements the future event list that drives the
// discrete-event simulator: a pooled queue of timestamped events with
// stable FIFO ordering among simultaneous events and O(1)
// cancellation.
//
// Stability matters for reproducibility: the simulator frequently
// schedules several events at the same simulated minute (e.g. a burst of
// job submissions), and the paper's metrics are sensitive to dispatch
// order. Events that compare equal in time fire in the order they were
// scheduled.
//
// Layout. Each event's payload — its kind and two scalar words (A, B),
// no `any` boxing — lives in a slot record recycled through a free
// list, so nothing is allocated per event. The ordering structures hold
// entries of (time, scheduling-order stamp, slot) with the key inline,
// so comparisons never touch slot storage. An entry goes to its kind's
// FIFO lane when it is not before the lane's tail: a submission chain,
// equal-period refresh chains and timers at now + constant all arrive
// in order and never pay for a heap. Any other entry goes to one flat
// 4-ary heap. Pop takes the least of the heap top and the lane heads
// (the non-empty lanes are a bitmask), so events fire in exactly the
// (time, scheduling order) order a single heap would give. Handles are
// generation-counted: freeing a slot bumps its generation, so a stale
// handle to a recycled slot is detected (Cancel returns false) rather
// than corrupting an unrelated event.
//
// Cancellation is lazy: a canceled event stays in its lane or the heap
// as a tombstone until it surfaces or until tombstones outnumber live
// events, at which point the queue is compacted in place (lanes
// filtered, heap rebuilt in O(n) by Floyd's method).
package eventq

import (
	"math/bits"
	"sort"
)

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

// minCompact is the physical size below which tombstone compaction is
// not worth triggering.
const minCompact = 64

// numLanes bounds the kinds that get a FIFO lane: kinds 0..numLanes-1,
// one bit each in Queue.full. Events of any other kind always go to the
// heap.
const numLanes = 64

// slot is one event's payload record. gen survives reuse and is bumped
// on free, so handles to earlier tenants stay invalid.
type slot struct {
	a, b     int64
	kind     int32
	gen      uint32
	canceled bool
}

// entry is one physical queue position: an event's firing key (time,
// then seq, the scheduling-order stamp: the n-th Schedule gets n) and
// the slot holding its payload.
type entry struct {
	time float64
	seq  uint64
	slot int32
}

// less orders entries by (time, scheduling order): the FEL's total
// firing order.
func less(x, y entry) bool {
	if x.time != y.time {
		return x.time < y.time
	}
	return x.seq < y.seq
}

// lane is one kind's FIFO of entries in firing order: a ring buffer
// whose length is zero or a power of two, holding n entries from head.
type lane struct {
	buf  []entry
	head int
	n    int
}

func (l *lane) at(i int) *entry { return &l.buf[(l.head+i)&(len(l.buf)-1)] }

func (l *lane) front() entry { return l.buf[l.head] }

// accepts reports whether e can join the lane without breaking its
// order: the lane is empty or e is not before its tail.
func (l *lane) accepts(e entry) bool { return l.n == 0 || !less(e, *l.at(l.n - 1)) }

func (l *lane) push(e entry) {
	if l.n == len(l.buf) {
		buf := make([]entry, max(2*len(l.buf), 16))
		k := copy(buf, l.buf[l.head:])
		copy(buf[k:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	*l.at(l.n) = e
	l.n++
}

func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// Queue is a future event list. The zero value is NOT ready to use;
// construct with New.
type Queue struct {
	// slots holds every event's payload; free lists recycled slots.
	slots []slot
	free  []int32

	// heap is the 4-ary implicit heap of out-of-order entries; lanes[k]
	// is kind k's FIFO of in-order ones, and bit k of full is set while
	// lanes[k] is non-empty.
	heap  []entry
	lanes [numLanes]lane
	full  uint64

	// next is the scheduling-order counter: the stamp of the most
	// recent Schedule.
	next uint64
	// live counts scheduled, non-canceled events; n counts physical
	// entries in the heap and the lanes. Canceled events stay as
	// tombstones until popped or compacted away, so n-live of them are
	// pending removal.
	live int
	n    int
}

// New returns an empty queue.
func New() *Queue {
	return &Queue{}
}

// Live returns the number of pending (non-canceled) events.
func (q *Queue) Live() int { return q.live }

// Len returns the physical queue size: pending events plus canceled
// tombstones not yet compacted away. Len()-Live() is the tombstone
// count; compaction keeps it at most Live() (above a small minimum).
func (q *Queue) Len() int { return q.n }

// Tombstones returns the number of canceled events still occupying
// queue entries (Len minus Live) — the lazy-deletion debt the compactor
// bounds. Exposed for observability gauges.
func (q *Queue) Tombstones() int { return q.n - q.live }

// alloc takes a slot from the free list (or grows the storage) and
// fills it. The slot's generation is preserved across reuse and only
// bumped on free, so handles to prior tenants stay invalid.
func (q *Queue) alloc(kind int, a, b int64) int32 {
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		r := &q.slots[s]
		r.a, r.b, r.kind, r.canceled = a, b, int32(kind), false
		return s
	}
	q.slots = append(q.slots, slot{a: a, b: b, kind: int32(kind), gen: 1})
	return int32(len(q.slots) - 1)
}

// freeSlot returns a slot to the free list, invalidating outstanding
// handles by bumping the generation (which skips 0, the nil-handle
// sentinel, on wraparound).
func (q *Queue) freeSlot(s int32) {
	g := q.slots[s].gen + 1
	if g == 0 {
		g = 1
	}
	q.slots[s].gen = g
	q.free = append(q.free, s)
}

// push appends an entry to the 4-ary heap and sifts it up.
func (q *Queue) push(e entry) {
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down sifts the entry at heap position i down to its place.
func (q *Queue) down(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// insert files a new entry under its kind's lane when it keeps the lane
// in order, and under the heap otherwise.
func (q *Queue) insert(t float64, kind int, a, b int64, seq uint64) Handle {
	s := q.alloc(kind, a, b)
	e := entry{time: t, seq: seq, slot: s}
	if uint(kind) < numLanes && q.lanes[kind].accepts(e) {
		q.lanes[kind].push(e)
		q.full |= 1 << kind
	} else {
		q.push(e)
	}
	q.n++
	q.live++
	return Handle{slot: s, gen: q.slots[s].gen}
}

// take removes and returns the least entry of the heap top and the lane
// heads. The queue must not be empty.
func (q *Queue) take() entry {
	k := -1 // the lane holding best; -1 is the heap
	var best entry
	if len(q.heap) > 0 {
		best = q.heap[0]
	} else {
		k = bits.TrailingZeros64(q.full)
		best = q.lanes[k].front()
	}
	for m := q.full; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if e := q.lanes[j].front(); less(e, best) {
			best, k = e, j
		}
	}
	q.n--
	if k >= 0 {
		l := &q.lanes[k]
		if l.pop(); l.n == 0 {
			q.full &^= 1 << k
		}
		return best
	}
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return best
}

// compact filters every tombstone out of the lanes and the heap, frees
// their slots, and rebuilds the heap property in O(n) (Floyd).
// Triggered by Cancel when tombstones outnumber live events.
func (q *Queue) compact() {
	for m := q.full; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		l := &q.lanes[k]
		w := 0
		for i := 0; i < l.n; i++ {
			e := *l.at(i)
			if q.slots[e.slot].canceled {
				q.freeSlot(e.slot)
				continue
			}
			*l.at(w) = e
			w++
		}
		if l.n = w; w == 0 {
			q.full &^= 1 << k
		}
	}
	h := q.heap
	w := 0
	for _, e := range h {
		if q.slots[e.slot].canceled {
			q.freeSlot(e.slot)
			continue
		}
		h[w] = e
		w++
	}
	q.heap = h[:w]
	for i := (w - 2) >> 2; i >= 0; i-- {
		q.down(i)
	}
	q.n = q.live
}

// Schedule adds an event at time t. It returns a handle that can cancel
// the event. Scheduling an event in the past relative to previously
// popped events is the caller's responsibility to avoid; the queue
// itself only orders what it holds.
func (q *Queue) Schedule(t float64, kind int, a, b int64) Handle {
	q.next++
	return q.insert(t, kind, a, b, q.next)
}

// Cancel removes the event identified by h from the queue. Canceling an
// already-fired, already-canceled, or otherwise stale handle is a no-op
// returning false: the generation check detects handles whose slot has
// been freed (and possibly recycled) since they were issued.
func (q *Queue) Cancel(h Handle) bool {
	if h.gen == 0 || int(h.slot) >= len(q.slots) {
		return false
	}
	r := &q.slots[h.slot]
	if r.gen != h.gen || r.canceled {
		return false
	}
	r.canceled = true
	q.live--
	if tomb := q.n - q.live; tomb > q.live && q.n >= minCompact {
		q.compact()
	}
	return true
}

// Pop removes and returns the earliest pending event. ok is false when
// the queue is empty. Among events with equal time, the one scheduled
// first is returned first. The event's slot is recycled immediately;
// outstanding handles to it become stale.
func (q *Queue) Pop() (Event, bool) {
	for q.n > 0 {
		e := q.take()
		r := &q.slots[e.slot]
		if r.canceled {
			q.freeSlot(e.slot)
			continue
		}
		ev := Event{Time: e.time, Kind: int(r.kind), A: r.a, B: r.b}
		q.freeSlot(e.slot)
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
	add := func(e entry) {
		if r := &q.slots[e.slot]; !r.canceled {
			out = append(out, SavedEvent{Time: e.time, Kind: int(r.kind), A: r.a, B: r.b, Seq: e.seq})
		}
	}
	for _, e := range q.heap {
		add(e)
	}
	for m := q.full; m != 0; m &= m - 1 {
		l := &q.lanes[bits.TrailingZeros64(m)]
		for i := 0; i < l.n; i++ {
			add(*l.at(i))
		}
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
	return q.insert(sev.Time, sev.Kind, sev.A, sev.B, sev.Seq)
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
func (q *Queue) Cap() int { return len(q.slots) }
