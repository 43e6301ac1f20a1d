package eventq

// This file preserves the pre-pooling future event list — the
// container/heap binary heap of one heap-allocated record per event —
// as a test-only reference implementation. Its sole consumer
// is the differential fuzz target (FuzzQueueDiff), which replays op
// streams against both implementations and demands identical observable
// behavior. Once the pooled queue has survived in the field for a
// while, this shim and its fuzz target can be deleted together.

import (
	"container/heap"
	"sort"
)

type legacyEvent struct {
	time     float64
	kind     int
	a, b     int64
	seq      uint64
	index    int
	canceled bool
}

type legacyHandle struct{ ev *legacyEvent }

type legacyQueue struct {
	h    legacyHeap
	seq  uint64
	live int
}

func newLegacyQueue() *legacyQueue { return &legacyQueue{} }

func (q *legacyQueue) Live() int { return q.live }

func (q *legacyQueue) Schedule(t float64, kind int, a, b int64) legacyHandle {
	q.seq++
	ev := &legacyEvent{time: t, kind: kind, a: a, b: b, seq: q.seq}
	heap.Push(&q.h, ev)
	q.live++
	return legacyHandle{ev: ev}
}

func (q *legacyQueue) Cancel(h legacyHandle) bool {
	if h.ev == nil || h.ev.canceled || h.ev.index < 0 {
		return false
	}
	h.ev.canceled = true
	q.live--
	return true
}

func (q *legacyQueue) Pop() (Event, bool) {
	for q.h.Len() > 0 {
		ev := heap.Pop(&q.h).(*legacyEvent)
		if ev.canceled {
			continue
		}
		q.live--
		return Event{Time: ev.time, Kind: ev.kind, A: ev.a, B: ev.b}, true
	}
	return Event{}, false
}

func (q *legacyQueue) Export() []SavedEvent {
	out := make([]SavedEvent, 0, q.live)
	for _, ev := range q.h {
		if ev.canceled {
			continue
		}
		out = append(out, SavedEvent{Time: ev.time, Kind: ev.kind, A: ev.a, B: ev.b, Seq: ev.seq})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

type legacyHeap []*legacyEvent

var _ heap.Interface = (*legacyHeap)(nil)

func (h legacyHeap) Len() int { return len(h) }

func (h legacyHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h legacyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *legacyHeap) Push(x any) {
	ev := x.(*legacyEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
