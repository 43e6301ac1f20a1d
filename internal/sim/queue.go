package sim

import (
	"math/bits"
	"slices"

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
// Only a completed job can never revive; each FIFO's open bitmap lets
// the scan skip its slots.
type waitQueue struct {
	// classes holds one FIFO of entries per priority present, highest
	// priority first. Tombstones (entries with queued=false) are
	// compacted as the head advances.
	classes []*fifo
	// n counts live (non-tombstoned) entries.
	n int
}

// fitScanLimit bounds how deep the dispatcher looks past the queue head
// for a job that fits a specific machine. A small window avoids
// head-of-line blocking by memory-hungry jobs without turning every
// dispatch into a full queue scan.
const fitScanLimit = 64

// Len returns the number of live entries.
func (w *waitQueue) Len() int { return w.n }

// push appends the entry to its priority class.
func (w *waitQueue) push(rt *jobRT) {
	rt.queued = true
	w.class(rt.spec.Priority).push(rt)
	w.n++
}

// class returns the FIFO of priority p, inserting an empty one in
// priority order when p is new.
func (w *waitQueue) class(p job.Priority) *fifo {
	idx := len(w.classes)
	for i, f := range w.classes {
		if f.prio == p {
			return f
		}
		if p > f.prio {
			idx = i
			break
		}
	}
	f := &fifo{prio: p}
	w.classes = slices.Insert(w.classes, idx, f)
	return f
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
// mach's free capacity, scanning at most fitScanLimit live entries per
// priority class. It compacts every class it visits and does not remove
// the entry.
func (w *waitQueue) peekFitting(mach *machineRT) *jobRT {
	for _, f := range w.classes {
		f.compact()
		if rt := f.peekFitting(mach); rt != nil {
			return rt
		}
	}
	return nil
}

// fifo is a slice-backed FIFO with a moving head and periodic
// compaction. open holds one bit per slot of items: set by push, and
// cleared by peekFitting once the slot's job has completed. It is
// derived state, never saved; reopen rebuilds it after a restore. Its
// first words are word0, so a FIFO of up to 256 slots allocates none.
type fifo struct {
	prio  job.Priority
	items []*jobRT
	head  int
	open  []uint64
	word0 [4]uint64
}

func (f *fifo) push(rt *jobRT) {
	i := len(f.items)
	f.items = append(f.items, rt)
	if i&63 == 0 {
		if f.open == nil {
			f.open = f.word0[:0]
		}
		f.open = append(f.open, 0)
	}
	f.open[i>>6] |= 1 << (i & 63)
}

// peekFitting scans the open slots from head for the first live entry
// that fits mach, giving up after fitScanLimit live entries. It closes
// the slots of completed jobs it meets, so each such slot is read once
// more after its job finishes, and never again.
func (f *fifo) peekFitting(mach *machineRT) *jobRT {
	items, open := f.items, f.open
	scanned := 0
	for wi := f.head >> 6; wi < len(open); wi++ {
		word := open[wi]
		if wi == f.head>>6 {
			word &^= 1<<(f.head&63) - 1
		}
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			rt := items[wi<<6|b]
			switch {
			case rt.done:
				open[wi] &^= 1 << b
			case !rt.queued:
			case machineFits(mach, rt.spec):
				return rt
			default:
				if scanned++; scanned == fitScanLimit {
					return nil
				}
			}
		}
	}
	return nil
}

// reopen marks every occupied slot at or after head open.
func (f *fifo) reopen() {
	f.open = f.word0[:0]
	for i, rt := range f.items {
		if i&63 == 0 {
			f.open = append(f.open, 0)
		}
		if i >= f.head && rt != nil {
			f.open[i>>6] |= 1 << (i & 63)
		}
	}
}

// compact advances head past tombstones and reclaims space once the
// dead prefix dominates, shifting the open bitmap down with the items.
// The bitmap's bits past the new length stay zero: they come from past
// the old length, where no bit is ever set.
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
		ws, bs := f.head>>6, uint(f.head&63)
		nw := (n + 63) >> 6
		for k := range nw {
			w := f.open[k+ws] >> bs
			if bs != 0 && k+ws+1 < len(f.open) {
				w |= f.open[k+ws+1] << (64 - bs)
			}
			f.open[k] = w
		}
		f.open = f.open[:nw]
		f.head = 0
	}
}
