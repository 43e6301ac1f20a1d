package job

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestConservationUnderRandomLifecycles drives jobs through random legal
// lifecycle sequences (queueing, starting, suspension ping-pong,
// restarts, wait reschedules) and checks the accounting conservation
// invariant at completion. This is the invariant the whole metrics layer
// rests on.
func TestConservationUnderRandomLifecycles(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		spec := Spec{
			ID:         ID(seed % 1000),
			Submit:     r.Float64() * 100,
			Work:       10 + r.Float64()*500,
			Cores:      1 + r.IntN(4),
			MemMB:      1024,
			Priority:   PriorityLow,
			Candidates: []int{0, 1, 2, 3},
		}
		j := newLive(&spec)
		now := spec.Submit
		adv := func() float64 {
			now += r.Float64() * 50
			return now
		}
		if j.Enqueue(adv(), r.IntN(4)) != nil {
			return false
		}
		// Random walk until completed; cap steps to guarantee progress.
		for steps := 0; steps < 200; steps++ {
			switch j.State() {
			case StateWaiting:
				switch r.IntN(4) {
				case 0: // bounce to another pool queue
					if j.RescheduleWait(adv()) != nil {
						return false
					}
				default:
					speed := 0.5 + r.Float64()*1.5
					if j.Start(adv(), r.IntN(100), speed) != nil {
						return false
					}
				}
			case StateTransit:
				if j.Enqueue(adv(), r.IntN(4)) != nil {
					return false
				}
			case StateRunning:
				rem := j.RemainingAt(now)
				if r.IntN(3) == 0 || rem < 1e-9 {
					// Run to completion.
					now += rem
					if j.Complete(now) != nil {
						return false
					}
				} else {
					// Suspend strictly before the job would finish; the
					// simulator cancels the completion event on suspend,
					// so overshoot cannot happen there either.
					now += r.Float64() * rem * 0.9
					if j.Suspend(now) != nil {
						return false
					}
				}
			case StateSuspended:
				switch r.IntN(3) {
				case 0:
					if j.RestartFrom(adv()) != nil {
						return false
					}
				default:
					if j.Resume(adv()) != nil {
						return false
					}
				}
			case StateCompleted:
				return j.CheckConservation() == nil
			default:
				return false
			}
		}
		// If we ran out of steps, force completion and check anyway.
		for j.State() != StateCompleted {
			switch j.State() {
			case StateWaiting:
				if j.Start(adv(), 0, 1.0) != nil {
					return false
				}
			case StateTransit:
				if j.Enqueue(adv(), 0) != nil {
					return false
				}
			case StateSuspended:
				if j.Resume(adv()) != nil {
					return false
				}
			case StateRunning:
				now += j.RemainingAt(now)
				if j.Complete(now) != nil {
					return false
				}
			}
		}
		return j.CheckConservation() == nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestWastedNeverNegative checks that every accounting bucket stays
// nonnegative under random lifecycles.
func TestWastedNeverNegative(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 77))
		j := newLive(&Spec{
			ID: 1, Submit: 0, Work: 100, Cores: 1, MemMB: 1,
			Priority: PriorityHigh, Candidates: []int{0},
		})
		now := 0.0
		adv := func() float64 { now += r.Float64() * 20; return now }
		if j.Enqueue(adv(), 0) != nil {
			return false
		}
		if j.Start(adv(), 0, 1.0) != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			if j.Suspend(adv()) != nil {
				return false
			}
			if r.IntN(2) == 0 {
				if j.RestartFrom(adv()) != nil {
					return false
				}
				if j.Enqueue(adv(), 0) != nil {
					return false
				}
				if j.Start(adv(), 0, 1.0) != nil {
					return false
				}
			} else if j.Resume(adv()) != nil {
				return false
			}
		}
		a := j.Acct()
		return a.Wait >= 0 && a.Suspend >= 0 && a.WastedExec >= 0 &&
			a.RescheduleOverhead >= 0 && a.Exec >= 0 && a.Wasted() >= 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
