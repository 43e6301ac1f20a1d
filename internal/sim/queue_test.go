package sim

import (
	"testing"

	"netbatch/internal/job"
)

func queuedRT(id job.ID, prio job.Priority) *jobRT {
	spec := &job.Spec{
		ID: id, Work: 10, Cores: 1, MemMB: 1,
		Priority: prio, Candidates: []int{0},
	}
	return &jobRT{j: job.New(spec), spec: spec}
}

func TestWaitQueuePriorityThenFIFO(t *testing.T) {
	q := newWaitQueue()
	low1 := queuedRT(1, job.PriorityLow)
	low2 := queuedRT(2, job.PriorityLow)
	high1 := queuedRT(3, job.PriorityHigh)
	q.push(low1)
	q.push(low2)
	q.push(high1)
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	anyFits := func(*jobRT) bool { return true }
	if got := q.peekFitting(anyFits); got != high1 {
		t.Fatalf("peek = job %d, want high-priority job 3", got.spec.ID)
	}
	q.remove(high1)
	if got := q.peekFitting(anyFits); got != low1 {
		t.Fatalf("peek = job %d, want FIFO-first low job 1", got.spec.ID)
	}
	q.remove(low1)
	if got := q.peekFitting(anyFits); got != low2 {
		t.Fatalf("peek = job %d, want job 2", got.spec.ID)
	}
	q.remove(low2)
	if q.Len() != 0 || q.peekFitting(anyFits) != nil {
		t.Fatal("queue should be empty")
	}
}

func TestWaitQueueSkipsUnfitting(t *testing.T) {
	q := newWaitQueue()
	big := queuedRT(1, job.PriorityLow)
	big.spec.MemMB = 1 << 20
	small := queuedRT(2, job.PriorityLow)
	q.push(big)
	q.push(small)
	fitsSmallOnly := func(rt *jobRT) bool { return rt.spec.MemMB < 1000 }
	if got := q.peekFitting(fitsSmallOnly); got != small {
		t.Fatal("should skip past the unfitting head")
	}
	// The skipped head stays queued.
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestWaitQueueRemoveIdempotent(t *testing.T) {
	q := newWaitQueue()
	rt := queuedRT(1, job.PriorityLow)
	q.push(rt)
	q.remove(rt)
	q.remove(rt) // second removal is a no-op
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestWaitQueueCompaction(t *testing.T) {
	q := newWaitQueue()
	var all []*jobRT
	for i := 0; i < 500; i++ {
		rt := queuedRT(job.ID(i+1), job.PriorityLow)
		q.push(rt)
		all = append(all, rt)
	}
	// Remove a large prefix to force head advancement and compaction.
	for _, rt := range all[:400] {
		q.remove(rt)
	}
	anyFits := func(*jobRT) bool { return true }
	if got := q.peekFitting(anyFits); got != all[400] {
		t.Fatalf("peek = job %d, want 401", got.spec.ID)
	}
	f := q.classes[job.PriorityLow]
	f.compact()
	if len(f.items)-f.head > 150 {
		t.Fatalf("compaction ineffective: %d live slots for 100 entries", len(f.items)-f.head)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestWaitQueueScanLimit(t *testing.T) {
	q := newWaitQueue()
	// More unfitting entries than the scan limit, then one that fits:
	// the fitting entry is beyond the window and must NOT be found
	// (documented head-of-line trade-off).
	for i := 0; i < fitScanLimit+10; i++ {
		rt := queuedRT(job.ID(i+1), job.PriorityLow)
		rt.spec.MemMB = 1 << 20
		q.push(rt)
	}
	fitting := queuedRT(999, job.PriorityLow)
	q.push(fitting)
	fitsSmallOnly := func(rt *jobRT) bool { return rt.spec.MemMB < 1000 }
	if got := q.peekFitting(fitsSmallOnly); got != nil {
		t.Fatalf("found job %d beyond the scan window", got.spec.ID)
	}
}
