package benchsnap

import (
	"math/rand/v2"
	"testing"

	"netbatch/internal/eventq"
)

// This file holds the event queue's layer cells. internal/eventq's
// benchmarks run the same bodies, so `go test -bench ./internal/eventq`
// and the recorded eventq/* cells time one workload each.

// QueueScheduleAndPop times one Schedule at a uniformly random time of
// one kind, popping 512 events whenever more than 1,024 are pending:
// the queue's order is all heap, with no in-order traffic for a lane.
func QueueScheduleAndPop(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	q := eventq.New()
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

// QueueCancel times lazy cancellation, compaction included. Events
// are scheduled in fixed rounds with the timer stopped, so the queue,
// and the benchmark's memory, stay the same size for any b.N.
func QueueCancel(b *testing.B) {
	const round = 4096
	q := eventq.New()
	handles := make([]eventq.Handle, round)
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

// QueueKindChains times one event of a fixed mix shaped like a
// simulated year on the 6-site federation (the year6 cell): a Pop and
// the schedules and cancels its handler makes. Each submission
// schedules the next one (an in-order chain), its job's completion at
// a random time, and on every other job a wait timer at now +
// constant; 30 view-refresh chains reschedule themselves on a common
// period; one wait timer in six is canceled. The queue holds ~200
// events at a pop and 1.3% of schedules are canceled; a year6_fed pass
// of the repository benchmark pops at a mean depth of 196 and cancels
// 0.95%. Random draws come from fixed tables made before the timer
// starts.
func QueueKindChains(b *testing.B) {
	const (
		kSubmit  = 1
		kFinish  = 3
		kWait    = 5
		kRefresh = 6
		chains   = 30
		period   = 8.0  // refresh period, in mean submission gaps
		meanRun  = 150  // mean job run time, in mean submission gaps
		waitFor  = 40.0 // wait-timer delay
		draws    = 1 << 12
	)
	r := rand.New(rand.NewPCG(3, 4))
	gaps := make([]float64, draws)
	runs := make([]float64, draws)
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		runs[i] = meanRun * r.ExpFloat64()
	}
	q := eventq.New()
	q.Schedule(0, kSubmit, 0, 0)
	for c := range chains {
		q.Schedule(0, kRefresh, int64(c), 0)
	}
	var job int64
	var waits int
	var lastWait eventq.Handle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, _ := q.Pop()
		switch ev.Kind {
		case kSubmit:
			d := int(job) & (draws - 1)
			q.Schedule(ev.Time+gaps[d], kSubmit, job+1, 0)
			q.Schedule(ev.Time+runs[d], kFinish, job, 0)
			if job&1 == 0 {
				if waits++; waits%6 == 0 {
					q.Cancel(lastWait)
				}
				lastWait = q.Schedule(ev.Time+waitFor, kWait, job, 0)
			}
			job++
		case kRefresh:
			q.Schedule(ev.Time+period, kRefresh, ev.A, 0)
		}
	}
}
