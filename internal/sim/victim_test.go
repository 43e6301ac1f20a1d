package sim

import (
	"testing"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/sched"
	"netbatch/internal/trace"
)

// TestVictimStacksBoundedByOpenJobs runs a year-long cell event by
// event and checks, every 1,000 events, that completed jobs' entries do
// not pile up in the victim stacks: no stack holds more than twice the
// most open jobs (jobs not completed that its stacks name) its pool
// has had at a check so far, plus compactAt. A stack compacts when its
// length reaches a power of two, so between compactions it may grow to
// twice what the last one left while its jobs complete. Before
// pushRunning compacted, a stack kept an entry for every job that ever
// started in its pool.
func TestVictimStacksBoundedByOpenJobs(t *testing.T) {
	const scale = 0.02
	tr, err := trace.Generate(trace.YearLong(3, scale))
	if err != nil {
		t.Fatal(err)
	}
	nc := cluster.DefaultNetBatchConfig()
	nc.Scale = scale
	plat, err := cluster.NewNetBatchPlatform(nc)
	if err != nil {
		t.Fatal(err)
	}
	raw := Config{Platform: plat, Initial: sched.NewRoundRobin(), Policy: core.NewResSusWaitUtil(), SampleEvery: 60}
	cfg, err := raw.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorld(cfg, tr.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	w.seed()
	longest := 0
	peak := make([]int, len(w.pools))
	for w.completed < len(w.specs) {
		ev, ok := w.q.Pop()
		if !ok {
			t.Fatalf("deadlock at t=%v", w.now)
		}
		w.now = ev.Time
		w.events++
		w.acct.advanceTo(w.now)
		if err := w.dispatch(ev); err != nil {
			t.Fatal(err)
		}
		if w.events%1000 != 0 {
			continue
		}
		for _, p := range w.pools {
			open := make(map[*jobRT]bool)
			for _, stack := range p.running {
				for _, rt := range stack {
					if !rt.done {
						open[rt] = true
					}
				}
			}
			peak[p.pool.ID] = max(peak[p.pool.ID], len(open))
			for prio, stack := range p.running {
				if len(stack) > 2*peak[p.pool.ID]+compactAt {
					t.Fatalf("t=%v: pool %d's priority-%d victim stack holds %d entries, its pool at most %d open jobs",
						w.now, p.pool.ID, prio, len(stack), peak[p.pool.ID])
				}
				longest = max(longest, len(stack))
			}
		}
	}
	// The cell must preempt enough to reach compaction at all.
	if longest < compactAt {
		t.Fatalf("longest victim stack held %d entries, under compactAt (%d)", longest, compactAt)
	}
}
