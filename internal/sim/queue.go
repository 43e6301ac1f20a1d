package sim

import (
	"netbatch/internal/job"
)

// waitQueue is a physical pool's wait queue: strict priority order
// between classes, FIFO within a class. Entries removed from the middle
// (wait-timeout reschedules) are tombstoned and skipped lazily.
//
// A deliberate — and deliberately preserved — subtlety: slot liveness
// is the job's queued flag, so a tombstoned slot revives if its job
// re-enters a wait queue anywhere. A job that leaves this pool and is
// enqueued again (the same pool after a restart, or another pool after
// a reschedule) becomes visible to this pool's dispatcher again
// through its old slots, keeping its former FIFO position — and a
// dispatcher can thereby start a job that currently waits in a
// different pool's queue, possibly at another site (see jobRT.aliased).
type waitQueue struct {
	// classes maps priority -> FIFO ring of entries. Tombstones (entries
	// with queued=false) are compacted as the head advances.
	classes map[job.Priority]*fifo
	// prios caches the priorities present, highest first.
	prios []job.Priority
	// n counts live (non-tombstoned) entries.
	n int
}

// fitScanLimit bounds how deep the dispatcher looks past the queue head
// for a job that fits a specific machine. A small window avoids
// head-of-line blocking by memory-hungry jobs without turning every
// dispatch into a full queue scan.
const fitScanLimit = 64

func newWaitQueue() *waitQueue {
	return &waitQueue{classes: make(map[job.Priority]*fifo)}
}

// Len returns the number of live entries.
func (w *waitQueue) Len() int { return w.n }

// push appends the entry to its priority class.
func (w *waitQueue) push(rt *jobRT) {
	prio := rt.spec.Priority
	f, ok := w.classes[prio]
	if !ok {
		f = &fifo{}
		w.classes[prio] = f
		w.insertPrio(prio)
	}
	rt.queued = true
	f.push(rt)
	w.n++
}

// insertPrio keeps prios sorted descending.
func (w *waitQueue) insertPrio(p job.Priority) {
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
func (w *waitQueue) remove(rt *jobRT) {
	if !rt.queued {
		return
	}
	rt.queued = false
	w.n--
}

// peekFitting returns the highest-priority, oldest entry whose job fits
// the machine, scanning at most fitScanLimit live entries per priority
// class. It does not remove the entry.
func (w *waitQueue) peekFitting(fits func(*jobRT) bool) *jobRT {
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

// fifo is a slice-backed FIFO with a moving head and periodic
// compaction.
type fifo struct {
	items []*jobRT
	head  int
}

func (f *fifo) push(rt *jobRT) { f.items = append(f.items, rt) }

// compact advances head past tombstones and reclaims space once the
// dead prefix dominates.
func (f *fifo) compact() {
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
