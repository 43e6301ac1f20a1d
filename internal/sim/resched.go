package sim

import (
	"fmt"

	"netbatch/internal/core"
	"netbatch/internal/job"
)

// reschedSys is the dynamic-rescheduling subsystem: the paper's
// primary mechanism (§3). It owns the suspension-decision sweep
// (susDecide) and the wait-queue stall timer (waitTimeout). Both
// consult the core.Policy — whose random streams are order-sensitive —
// and read the (aged) utilization view.
type reschedSys struct {
	sh *shard

	// Allocated event kinds.
	susDecide, waitTimeout kind
}

func (s *reschedSys) register(k *kernel) {
	sh := s.sh
	s.susDecide = k.registerKind("susDecide", func(a, _ int64) error { return sh.handleSusDecide(int(a)) })
	s.waitTimeout = k.registerKind("waitTimeout", func(a, _ int64) error { return sh.handleWaitTimeout(int(a)) })
	// The subsystem owns no state beyond its pending events (saved with
	// the kernel queue; the core codec rewires each restored wait-timer
	// handle to its job) and the policy's internals (saved through the
	// Stateful contract). The empty codec records that this is by
	// design, and keeps the registry enumeration complete.
	k.registerState("resched", func(*snapEncoder) {}, func(*snapDecoder) error { return nil })
}

// handleSusDecide consults the rescheduling policy about a job that was
// suspended one decision sweep ago.
func (sh *shard) handleSusDecide(idx int) error {
	rt := &sh.w.jobs[idx]
	if rt.j.State() != job.StateSuspended {
		return nil // resumed or departed meanwhile
	}
	// The deciding agent runs at the job's current site.
	sh.view.observe(sh.siteOfPool(rt.j.Pool))
	if target, move := sh.w.cfg.Policy.OnSuspend(sh.k.now, rt.j, sh.view); move {
		return sh.departSuspended(rt, target)
	}
	return nil
}

// departSuspended removes a suspended job from its host and routes it
// toward target, restarting (progress lost) or migrating (progress
// kept) per the policy.
func (sh *shard) departSuspended(rt *jobRT, target int) error {
	mid := rt.j.Machine
	mach := &sh.w.machines[mid]
	p := sh.w.pools[mach.m.Pool]
	if !removeSuspended(mach, rt) {
		return fmt.Errorf("job %d not found in machine %d suspended list", rt.spec.ID, mid)
	}
	sh.noteDetach(rt)
	p.suspendedCnt--
	sh.scopeSuspended--
	if sh.w.cfg.SuspendHoldsMemory {
		mach.freeMemMB += rt.spec.MemMB
	}

	overhead := sh.w.cfg.RescheduleOverhead
	if from := sh.siteOfPool(rt.j.Pool); from != sh.siteOfPool(target) {
		// Crossing a site boundary pays the inter-site transfer delay on
		// top of any configured reschedule overhead.
		overhead += sh.w.plat.RTT(from, sh.siteOfPool(target))
		sh.res.CrossSiteMoves++
	}
	if mig, ok := sh.w.cfg.Policy.(core.Migrator); ok {
		if err := rt.j.MigrateFrom(sh.k.now); err != nil {
			return err
		}
		sh.res.Migrations++
		overhead += mig.MigrationOverhead()
	} else {
		if err := rt.j.RestartFrom(sh.k.now); err != nil {
			return err
		}
		sh.res.Restarts++
	}
	sh.route(rt, target, overhead)
	return sh.onFree(mid)
}

// route delivers a job in transit to a pool, after overhead minutes
// (cross-site overhead always includes the inter-site RTT).
func (sh *shard) route(rt *jobRT, pool int, overhead float64) {
	sh.k.schedule(sh.k.now+overhead, sh.place.arrive, int64(rt.idx), int64(pool))
}

// handleWaitTimeout applies the policy's waiting-job rescheduling
// (§3.3): a job stalled past the threshold may dequeue itself and move
// to an alternate pool; otherwise the timer re-arms.
func (sh *shard) handleWaitTimeout(idx int) error {
	rt := &sh.w.jobs[idx]
	if !rt.queued || rt.j.State() != job.StateWaiting {
		return nil // stale timer: the job was dispatched meanwhile
	}
	th := sh.w.cfg.Policy.WaitThreshold()
	if th <= 0 {
		return nil
	}
	sh.view.observe(sh.siteOfPool(rt.j.Pool))
	target, move := sh.w.cfg.Policy.OnWaitTimeout(sh.k.now, rt.j, sh.view)
	if !move || target == rt.j.Pool {
		rt.waitTO = sh.k.schedule(sh.k.now+th, sh.dyn.waitTimeout, int64(rt.idx), 0)
		return nil
	}
	p := sh.w.pools[rt.j.Pool]
	p.waitQ.remove(rt)
	sh.scopeWaiting--
	overhead := sh.w.cfg.RescheduleOverhead
	from := sh.siteOfPool(rt.j.Pool)
	if from != sh.siteOfPool(target) {
		overhead += sh.w.plat.RTT(from, sh.siteOfPool(target))
		sh.res.CrossSiteMoves++
	}
	if err := rt.j.RescheduleWait(sh.k.now); err != nil {
		return err
	}
	sh.res.WaitMoves++
	sh.route(rt, target, overhead)
	return nil
}
