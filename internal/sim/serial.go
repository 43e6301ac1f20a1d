package sim

import "fmt"

// runSerial drives the whole simulation: one event queue, popped in
// (time, scheduling order). With a resume snapshot the world's state
// is restored instead of seeded and the loop continues mid-run; with
// checkpointing enabled the loop snapshots at the first event boundary
// past each cadence mark.
func runSerial(w *world, sn *snapshot) (*Result, error) {
	// The configuration hash walks the whole workload, so it is computed
	// once, and only when a resume checks it or checkpoints record it.
	var cfgHash uint64
	if sn != nil || w.cfg.CheckpointEvery > 0 {
		cfgHash = configHash(w)
	}
	if sn != nil {
		if err := w.restore(sn, cfgHash); err != nil {
			return nil, err
		}
	} else {
		w.seed()
	}
	ck := newCheckpointer(w, sn, cfgHash)
	if err := w.loop(ck); err != nil {
		return nil, err
	}
	res := w.res
	res.Events = w.events
	if err := w.finalizeJobs(&res); err != nil {
		return nil, w.broken(err)
	}
	w.finalizeFaults(&res)
	res.Util = w.acct.utilTS
	res.Suspended = w.acct.suspTS
	res.Waiting = w.acct.waitTS
	res.SiteUtil = w.acct.siteTS
	return &res, nil
}

func (w *world) loop(ck *checkpointer) error {
	total := len(w.specs)
	cfg := &w.cfg
	ctx := cfg.Context
	for w.completed < total {
		ev, ok := w.q.Pop()
		if !ok {
			return w.broken(fmt.Errorf("sim: deadlock at t=%v: %d of %d jobs completed and no pending events",
				w.now, w.completed, total))
		}
		if ev.Time < w.now {
			return w.broken(fmt.Errorf("sim: event time went backwards: %v -> %v", w.now, ev.Time))
		}
		w.now = ev.Time
		if w.now > cfg.MaxTime {
			return w.broken(fmt.Errorf("sim: exceeded MaxTime %v with %d of %d jobs incomplete",
				cfg.MaxTime, total-w.completed, total))
		}
		w.events++
		if w.events&255 == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("sim: canceled at t=%v: %w", w.now, err)
				}
			}
			// The execution facts ride the same stride as the ctx poll.
			if cfg.Progress != nil {
				cfg.Progress(w.now, w.events)
			}
			w.res.QueueDepthMax = max(w.res.QueueDepthMax, w.q.Live())
			w.res.QueueTombstonesMax = max(w.res.QueueTombstonesMax, w.q.Tombstones())
		}
		// Record sample ticks strictly before this event; ticks that
		// coincide with now are recorded only after every state change
		// at now has been applied (post-event state, see accounting).
		w.acct.advanceTo(w.now)
		if err := w.dispatch(ev); err != nil {
			return w.broken(fmt.Errorf("sim: t=%v: %w", w.now, err))
		}
		// A checkpoint is captured after the event's full effect, before
		// the next pop — where every piece of state is explicit and
		// enumerable.
		if ck.due(w.now) {
			if err := ck.take(w.now, w.events); err != nil {
				return err
			}
		}
	}
	return nil
}

// broken returns err, a failure of one of the engine's own checks (a
// job transition, capacity, conservation, deadlock or MaxTime), marked
// as the snapshot's fault when the run was resumed. A resumed run
// reproduces the straight run, so it fails a check the straight run
// passes only if its snapshot held state restore's range checks cannot
// see and no run reaches; ErrSnapshotMismatch then lets a caller re-run
// from t=0, as for any other unusable snapshot.
func (w *world) broken(err error) error {
	if !w.resumed {
		return err
	}
	return fmt.Errorf("%w: the resumed state breaks the run: %w", ErrSnapshotMismatch, err)
}
