package sim

import (
	"fmt"
	"slices"

	"netbatch/internal/core"
	"netbatch/internal/job"
)

// This file is dynamic rescheduling, the paper's primary mechanism
// (§3): the suspension-decision sweep (susDecide) and the wait-queue
// stall timer (waitTimeout). Both consult the core.Policy — whose
// random streams are order-sensitive — and read the (aged)
// utilization view. Their only state is their pending events (saved
// with the queue; restoreQueue rewires each restored wait timer to its
// job) and the policy's internals (the "policy" section, saved through
// the Stateful contract), so they have no section of their own.

// handleSusDecide consults the rescheduling policy about a job that was
// suspended one decision sweep ago.
func (w *world) handleSusDecide(idx int) error {
	rt := &w.jobs[idx]
	if rt.State() != job.StateSuspended {
		return nil // resumed or departed meanwhile
	}
	// The deciding agent runs at the job's current site.
	w.view.observe(w.siteOf[rt.Pool])
	eligible := w.eligiblePools(rt.spec)
	target, move := w.cfg.Policy.OnSuspend(rt.Job, eligible, &w.view)
	if !move {
		return nil
	}
	if !slices.Contains(eligible, target) {
		return badPick("policy", w.cfg.Policy.Name(), rt.spec, target, eligible)
	}
	return w.departSuspended(rt, target)
}

// departSuspended removes a suspended job from its host and routes it
// toward target, restarting (progress lost) or migrating (progress
// kept) per the policy.
func (w *world) departSuspended(rt *jobRT, target int) error {
	mid := rt.Machine
	mach := &w.machines[mid]
	p := w.pools[mach.m.Pool]
	if !removeSuspended(mach, rt) {
		return fmt.Errorf("job %d not found in machine %d suspended list", rt.spec.ID, mid)
	}
	w.noteDetach(rt)
	p.suspendedCnt--
	w.scopeSuspended--

	overhead := w.cfg.RescheduleOverhead
	if from := w.siteOf[rt.Pool]; from != w.siteOf[target] {
		// Crossing a site boundary pays the inter-site transfer delay on
		// top of any configured reschedule overhead.
		overhead += w.plat.RTT(from, w.siteOf[target])
		w.res.CrossSiteMoves++
	}
	if mig, ok := w.cfg.Policy.(core.Migrator); ok {
		if err := rt.MigrateFrom(w.now); err != nil {
			return err
		}
		w.res.Migrations++
		overhead += mig.MigrationOverhead()
	} else {
		if err := rt.RestartFrom(w.now); err != nil {
			return err
		}
		w.res.Restarts++
	}
	w.route(rt, target, overhead)
	return w.onFree(mid)
}

// route delivers a job in transit to a pool, after overhead minutes
// (cross-site overhead always includes the inter-site RTT).
func (w *world) route(rt *jobRT, pool int, overhead float64) {
	w.schedule(w.now+overhead, kArrive, int64(rt.idx), int64(pool))
}

// handleWaitTimeout applies the policy's waiting-job rescheduling
// (§3.3): a job stalled past the threshold may dequeue itself and move
// to an alternate pool; otherwise the timer re-arms.
func (w *world) handleWaitTimeout(idx int) error {
	rt := &w.jobs[idx]
	if !rt.queued || rt.State() != job.StateWaiting {
		return nil // stale timer: the job was dispatched meanwhile
	}
	th := w.cfg.Policy.WaitThreshold()
	if th <= 0 {
		return nil
	}
	w.view.observe(w.siteOf[rt.Pool])
	eligible := w.eligiblePools(rt.spec)
	target, move := w.cfg.Policy.OnWaitTimeout(rt.Job, eligible, &w.view)
	if !move || target == rt.Pool {
		rt.waitTO = w.schedule(w.now+th, kWaitTimeout, int64(rt.idx), 0)
		return nil
	}
	if !slices.Contains(eligible, target) {
		return badPick("policy", w.cfg.Policy.Name(), rt.spec, target, eligible)
	}
	p := w.pools[rt.Pool]
	p.waitQ.remove(rt)
	w.scopeWaiting--
	overhead := w.cfg.RescheduleOverhead
	from := w.siteOf[rt.Pool]
	if from != w.siteOf[target] {
		overhead += w.plat.RTT(from, w.siteOf[target])
		w.res.CrossSiteMoves++
	}
	if err := rt.RescheduleWait(w.now); err != nil {
		return err
	}
	w.res.WaitMoves++
	w.route(rt, target, overhead)
	return nil
}
