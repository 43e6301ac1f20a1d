package sim

// This file keeps the wait queue as it was before the open-slot bitmap
// (every slot from head visited on every peek, the fit test a closure)
// as a test-only reference implementation. Its consumers are the
// differential fuzz target FuzzWaitQueueDiff, which replays op streams
// against both queues and demands identical picks and FIFO layouts,
// and BenchmarkWaitQueuePeek's reference leg. The code below is the
// old queue verbatim, with its types renamed; it shares fitScanLimit
// with the live queue.

import (
	"netbatch/internal/job"
)

// refWaitQueue is the wait queue without the open bitmap.
type refWaitQueue struct {
	// classes maps priority -> FIFO ring of entries. Tombstones (entries
	// with queued=false) are compacted as the head advances.
	classes map[job.Priority]*refFifo
	// prios caches the priorities present, highest first.
	prios []job.Priority
	// n counts live (non-tombstoned) entries.
	n int
}

func newRefWaitQueue() *refWaitQueue {
	return &refWaitQueue{classes: make(map[job.Priority]*refFifo)}
}

// Len returns the number of live entries.
func (w *refWaitQueue) Len() int { return w.n }

// push appends the entry to its priority class.
func (w *refWaitQueue) push(rt *jobRT) {
	prio := rt.spec.Priority
	f, ok := w.classes[prio]
	if !ok {
		f = &refFifo{}
		w.classes[prio] = f
		w.insertPrio(prio)
	}
	rt.queued = true
	f.push(rt)
	w.n++
}

// insertPrio keeps prios sorted descending.
func (w *refWaitQueue) insertPrio(p job.Priority) {
	idx := len(w.prios)
	for i, q := range w.prios {
		if p > q {
			idx = i
			break
		}
	}
	w.prios = append(w.prios, 0)
	copy(w.prios[idx+1:], w.prios[idx:])
	w.prios[idx] = p
}

// remove tombstones an entry (it keeps its slot until compaction).
func (w *refWaitQueue) remove(rt *jobRT) {
	if !rt.queued {
		return
	}
	rt.queued = false
	w.n--
}

// peekFitting returns the highest-priority, oldest entry whose job fits
// the machine, scanning at most fitScanLimit live entries per priority
// class. It does not remove the entry.
func (w *refWaitQueue) peekFitting(fits func(*jobRT) bool) *jobRT {
	for _, prio := range w.prios {
		f := w.classes[prio]
		f.compact()
		scanned := 0
		for i := f.head; i < len(f.items) && scanned < fitScanLimit; i++ {
			rt := f.items[i]
			if rt == nil || !rt.queued {
				continue
			}
			scanned++
			if fits(rt) {
				return rt
			}
		}
	}
	return nil
}

// refFifo is a slice-backed FIFO with a moving head and periodic
// compaction.
type refFifo struct {
	items []*jobRT
	head  int
}

func (f *refFifo) push(rt *jobRT) { f.items = append(f.items, rt) }

// compact advances head past tombstones and reclaims space once the
// dead prefix dominates.
func (f *refFifo) compact() {
	for f.head < len(f.items) {
		rt := f.items[f.head]
		if rt != nil && rt.queued {
			break
		}
		f.items[f.head] = nil
		f.head++
	}
	if f.head > 64 && f.head*2 > len(f.items) {
		n := copy(f.items, f.items[f.head:])
		for i := n; i < len(f.items); i++ {
			f.items[i] = nil
		}
		f.items = f.items[:n]
		f.head = 0
	}
}
