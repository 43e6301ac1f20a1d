package sim

import (
	"fmt"

	"netbatch/internal/obs"
)

// runSerial drives the whole simulation: one event queue, popped in
// (time, scheduling order). With a resume snapshot the world's state
// is restored instead of seeded and the loop continues mid-run; with
// checkpointing enabled the loop snapshots at the first event boundary
// past each cadence mark.
func runSerial(w *world, sn *snapshot) (*Result, error) {
	if sn != nil {
		if err := w.restore(sn); err != nil {
			return nil, err
		}
	} else {
		w.seed()
	}
	ck := newCheckpointer(w, sn)
	if err := w.loop(ck); err != nil {
		return nil, err
	}
	res := w.res
	res.Events = w.events
	w.met.aliasRet.Add(res.AliasRetirements)
	if err := w.finalizeJobs(&res); err != nil {
		return nil, err
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
	met := &w.met
	pm := newProgressMeter(cfg)
	tk := cfg.Trace.Track("serial")
	ck.observe(met, tk)
	events0 := w.events
	t0 := tk.Now()
	defer func() {
		met.events.Add(w.events - events0)
		if tk != nil {
			tk.Span("run", t0, obs.Arg{Key: "events", Val: w.events - events0})
		}
	}()
	for w.completed < total {
		ev, ok := w.q.Pop()
		if !ok {
			return fmt.Errorf("sim: deadlock at t=%v: %d of %d jobs completed and no pending events",
				w.now, w.completed, total)
		}
		if ev.Time < w.now {
			return fmt.Errorf("sim: event time went backwards: %v -> %v", w.now, ev.Time)
		}
		w.now = ev.Time
		if w.now > cfg.MaxTime {
			return fmt.Errorf("sim: exceeded MaxTime %v with %d of %d jobs incomplete",
				cfg.MaxTime, total-w.completed, total)
		}
		w.events++
		if w.events&255 == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("sim: canceled at t=%v: %w", w.now, err)
				}
			}
			// Observability rides the same stride as the ctx poll: one
			// predicted branch each per 256 events when disabled.
			pm.maybe(w.now, w.events)
			if met.qDepth != nil {
				met.qDepth.Max(int64(w.q.Live()))
				met.qTombs.Max(int64(w.q.Tombstones()))
			}
		}
		// Record sample ticks strictly before this event; ticks that
		// coincide with now are recorded only after every state change
		// at now has been applied (post-event state, see accounting).
		w.acct.advanceTo(w.now)
		if err := w.dispatch(ev); err != nil {
			return fmt.Errorf("sim: t=%v: %w", w.now, err)
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
