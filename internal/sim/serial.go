package sim

import (
	"fmt"

	"netbatch/internal/obs"
)

// runSerial drives the whole simulation: one event queue, popped in
// (time, scheduling order), exactly the monolithic engine's loop. With
// a resume snapshot the shard's state is restored instead of seeded
// and the loop continues mid-run; with checkpointing enabled the loop
// snapshots at the first event boundary past each cadence mark.
func runSerial(w *world, sn *snapshot) (*Result, error) {
	sh := newShard(w)
	if sn != nil {
		if err := restoreRun(sn, w, sh); err != nil {
			return nil, err
		}
	} else {
		sh.seed()
	}
	ck := newCheckpointer(w, sh, sn)
	if err := serialLoop(sh, ck); err != nil {
		return nil, err
	}
	res := sh.res
	res.Events = sh.k.events
	res.AliasRetirements = w.aliasRetired
	w.met.aliasRet.Add(w.aliasRetired)
	if err := finalizeJobs(w, &res); err != nil {
		return nil, err
	}
	finalizeFaults(w, &res)
	res.Util = sh.acct.utilTS
	res.Suspended = sh.acct.suspTS
	res.Waiting = sh.acct.waitTS
	res.SiteUtil = sh.acct.siteTS
	return &res, nil
}

func serialLoop(sh *shard, ck *checkpointer) error {
	total := len(sh.w.specs)
	cfg := &sh.w.cfg
	ctx := cfg.Context
	k := sh.k
	met := &sh.w.met
	pm := newProgressMeter(cfg)
	tk := cfg.Trace.Track("serial")
	ck.observe(met, tk)
	events0 := k.events
	t0 := tk.Now()
	defer func() {
		met.events.Add(k.events - events0)
		if tk != nil {
			tk.Span("run", t0, obs.Arg{Key: "events", Val: k.events - events0})
		}
	}()
	for sh.completed < total {
		ev, ok := k.q.Pop()
		if !ok {
			return fmt.Errorf("sim: deadlock at t=%v: %d of %d jobs completed and no pending events",
				k.now, sh.completed, total)
		}
		if ev.Time < k.now {
			return fmt.Errorf("sim: event time went backwards: %v -> %v", k.now, ev.Time)
		}
		k.now = ev.Time
		if k.now > cfg.MaxTime {
			return fmt.Errorf("sim: exceeded MaxTime %v with %d of %d jobs incomplete",
				cfg.MaxTime, total-sh.completed, total)
		}
		k.events++
		if k.events&255 == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("sim: canceled at t=%v: %w", k.now, err)
				}
			}
			// Observability rides the same stride as the ctx poll: one
			// predicted branch each per 256 events when disabled.
			pm.maybe(k.now, k.events)
			if met.qDepth != nil {
				met.qDepth.Max(int64(k.q.Live()))
				met.qTombs.Max(int64(k.q.Tombstones()))
			}
		}
		// Record sample ticks strictly before this event; ticks that
		// coincide with now are recorded only after every state change
		// at now has been applied (post-event state, see accounting).
		sh.acct.advanceTo(k.now)
		if err := k.dispatch(ev); err != nil {
			return fmt.Errorf("sim: t=%v: %w", k.now, err)
		}
		if cfg.eventLog != nil {
			cfg.eventLog.record(k.now, k.kinds[ev.Kind].name, ev.A, ev.B)
		}
		// Both checkpoint capture points sit at the same boundary: after
		// the event's full effect, before the next pop — where every
		// piece of state is explicit and enumerable.
		if ck.due(k.now) {
			if err := ck.take(k.now, k.events); err != nil {
				return err
			}
		}
		if cfg.stopAtEvents > 0 && k.events >= cfg.stopAtEvents {
			data, err := takeSnapshot(sh.w, sh, newSnapParams(sh.w, sh, 0), k.now, k.events)
			if err != nil {
				return err
			}
			*cfg.captureAt = data
			return errReplayStop
		}
	}
	return nil
}
