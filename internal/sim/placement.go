package sim

import (
	"fmt"
	"math"
	"slices"

	"netbatch/internal/job"
	"netbatch/internal/snap"
)

// This file is placement and preemption: the virtual pool manager's
// initial dispatch (submit), arrivals at physical pools (arrive),
// completions (finish), and the capacity-handoff mechanics they share
// (§2.1/§2.2), plus the placement state codec.

// savePlacement dumps the placement state: for every site its busy
// counter, pool runtime state (class free stacks, wait queue with
// tombstoned slots and exact FIFO layout, victim-scan stacks with
// their stale entries, counters) and machine runtime state (capacity,
// availability, resident job lists). FIFO layout and stale stack
// entries are behavior, not bookkeeping — compaction timing decides
// which tombstoned slots can still revive, and stale entries drive
// victim pruning — so they are saved exactly rather than rebuilt. The
// job records are the jobs section (see putJobRecord).
func (w *world) savePlacement(e *snap.Encoder) {
	jobIdx := func(rt *jobRT) int {
		if rt == nil {
			return -1
		}
		return rt.idx
	}
	for site := range w.nSites {
		e.Int(w.siteBusy[site])
		for _, pid := range w.plat.Site(site).Pools {
			p := w.pools[pid]
			e.Int(p.busyCores)
			e.Int(p.suspendedCnt)
			e.Int(len(p.classes))
			for ci := range p.classes {
				e.Ints(p.classes[ci].free)
			}
			wq := p.waitQ
			e.Int(wq.n)
			e.Int(len(wq.classes))
			for _, f := range wq.classes {
				e.Int(int(f.prio))
				e.Int(f.head)
				e.Int(len(f.items))
				for _, rt := range f.items {
					e.Int(jobIdx(rt))
				}
			}
			// The victim stacks in ascending priority; a priority never
			// pushed is absent.
			nRun := 0
			for _, stack := range p.running {
				if stack != nil {
					nRun++
				}
			}
			e.Int(nRun)
			for prio, stack := range p.running {
				if stack == nil {
					continue
				}
				e.Int(prio)
				e.Int(len(stack))
				for _, rt := range stack {
					e.Int(jobIdx(rt))
				}
			}
		}
		for _, pid := range w.plat.Site(site).Pools {
			for _, mid := range w.plat.Pool(pid).Machines {
				m := &w.machines[mid]
				e.Int(m.freeCores)
				e.Int(m.freeMemMB)
				e.Bool(m.inFree)
				e.Bool(m.down)
				e.Int(m.spanIdx)
				e.Int(len(m.suspended))
				for _, rt := range m.suspended {
					e.Int(rt.idx)
				}
				e.Int(len(m.running))
				for _, rt := range m.running {
					e.Int(rt.idx)
				}
			}
		}
	}
}

// loadPlacement mirrors savePlacement field for field into the freshly
// built runtime structures, rejecting any index that does not fit the
// run. Every job it names must lie in the submitted prefix, which
// loadCore restored.
func (w *world) loadPlacement(d *snap.Decoder) error {
	nJobs := w.nextSubmit
	jobAt := func(idx int) *jobRT {
		if idx == -1 {
			return nil
		}
		if idx < 0 || idx >= nJobs {
			d.Fail()
			return nil
		}
		return &w.jobs[idx]
	}
	// Only wait-queue slots may be empty: a victim stack or a machine's
	// list always names a job.
	runningAt := func(idx int) *jobRT {
		rt := jobAt(idx)
		if rt == nil {
			d.Fail()
		}
		return rt
	}
	for site := range w.nSites {
		w.siteBusy[site] = d.Int()
		for _, pid := range w.plat.Site(site).Pools {
			p := w.pools[pid]
			p.busyCores = d.Int()
			p.suspendedCnt = d.Int()
			if nc := d.Int(); d.Err() == nil && nc != len(p.classes) {
				d.Fail()
			}
			for ci := range p.classes {
				free := d.IntsN(-1)
				for _, mid := range free {
					if mid < 0 || mid >= len(w.machines) {
						return fmt.Errorf("%w: pool %d free stack names machine %d", ErrSnapshotMismatch, pid, mid)
					}
				}
				p.classes[ci].free = free
			}
			wq := p.waitQ
			wq.n = d.Int()
			// Counts are checked against the bytes left: a priority class
			// is at least three words, a list entry one.
			nPrios := d.Count(-1, 24)
			wq.classes = make([]*fifo, 0, nPrios)
			for i := 0; i < nPrios; i++ {
				f := &fifo{prio: job.Priority(d.Int())}
				f.head = d.Int()
				nItems := d.Count(-1, 8)
				if f.head < 0 || f.head > nItems {
					return fmt.Errorf("%w: pool %d wait queue head %d outside its %d items",
						ErrSnapshotMismatch, pid, f.head, nItems)
				}
				f.items = make([]*jobRT, nItems)
				for it := range f.items {
					f.items[it] = jobAt(d.Int())
				}
				f.reopen()
				wq.classes = append(wq.classes, f)
			}
			nRun := d.Count(-1, 16)
			p.running = nil
			for i := 0; i < nRun; i++ {
				prio := d.Int()
				if d.Err() != nil {
					return d.Err()
				}
				// Stacks are saved in ascending priority order.
				if prio < len(p.running) || prio < 1 || prio > maxPriority {
					return fmt.Errorf("%w: pool %d victim stack of priority %d out of order or range",
						ErrSnapshotMismatch, pid, prio)
				}
				p.running = append(p.running, make([][]*jobRT, prio+1-len(p.running))...)
				nStack := d.Count(-1, 8)
				stack := make([]*jobRT, 0, nStack)
				for it := 0; it < nStack; it++ {
					stack = append(stack, runningAt(d.Int()))
				}
				p.running[prio] = stack
			}
		}
		for _, pid := range w.plat.Site(site).Pools {
			for _, mid := range w.plat.Pool(pid).Machines {
				m := &w.machines[mid]
				m.freeCores = d.Int()
				m.freeMemMB = d.Int()
				m.inFree = d.Bool()
				m.down = d.Bool()
				m.spanIdx = d.Int()
				nSusp := d.Count(nJobs, 8)
				m.suspended = m.suspended[:0]
				for i := 0; i < nSusp; i++ {
					m.suspended = append(m.suspended, runningAt(d.Int()))
				}
				nRun := d.Count(nJobs, 8)
				m.running = m.running[:0]
				for i := 0; i < nRun; i++ {
					m.running = append(m.running, runningAt(d.Int()))
				}
			}
		}
	}
	return d.Err()
}

// jobRecLen is the size of one record of the jobs section: eighteen
// words and the queued flag.
const jobRecLen = 18*8 + 1

// putJobRecord encodes job i's record into b[:jobRecLen]: its exported
// state and its runtime record's queued flag. Both change only in a job
// transition, which stamps StateSince (a wait-queue push or removal
// pairs with an Enqueue, Start or RescheduleWait at the same time).
func (w *world) putJobRecord(b []byte, i int) {
	rt := &w.jobs[i]
	st := rt.ExportState()
	e := snap.Encoder{Buf: b[:0:jobRecLen]}
	e.Int(int(st.State))
	e.F64(st.StateSince)
	e.Int(st.Pool)
	e.Int(st.Machine)
	e.F64(st.Speed)
	e.F64(st.Progress)
	e.F64(st.AttemptExecWall)
	e.F64(st.Acct.Wait)
	e.F64(st.Acct.Suspend)
	e.F64(st.Acct.WastedExec)
	e.F64(st.Acct.RescheduleOverhead)
	e.F64(st.Acct.Exec)
	e.Int(int(st.Acct.Suspensions))
	e.Int(int(st.Acct.Restarts))
	e.Int(int(st.Acct.WaitReschedules))
	e.Int(int(st.Acct.Kills))
	e.F64(st.FirstStart)
	e.F64(st.Completed)
	e.Bool(rt.queued)
}

// loadJobs restores the jobs section: one record per job of the
// submitted prefix, which loadCore restored, rejecting any record that
// does not fit the run (see validJobState). The records past the
// prefix stay as buildWorld made them.
func (w *world) loadJobs(data []byte) error {
	if len(data) != w.nextSubmit*jobRecLen {
		return fmt.Errorf("%w: %d bytes of job records for a submitted prefix of %d jobs",
			ErrSnapshotMismatch, len(data), w.nextSubmit)
	}
	d := snap.NewDecoder(data)
	for i := range w.nextSubmit {
		rt := &w.jobs[i]
		var st job.JobState
		state := d.Int()
		st.StateSince = d.F64()
		st.Pool = d.Int()
		st.Machine = d.Int()
		st.Speed = d.F64()
		st.Progress = d.F64()
		st.AttemptExecWall = d.F64()
		st.Acct.Wait = d.F64()
		st.Acct.Suspend = d.F64()
		st.Acct.WastedExec = d.F64()
		st.Acct.RescheduleOverhead = d.F64()
		st.Acct.Exec = d.F64()
		var counts [4]int
		for k := range counts {
			counts[k] = d.Int()
		}
		st.FirstStart = d.F64()
		st.Completed = d.F64()
		if d.Err() != nil {
			return d.Err()
		}
		// The state and the counters are narrower than their words, so a
		// word out of their range is rejected before it can wrap to a
		// value that looks valid.
		if state < int(job.StateCreated) || state > int(job.StateCompleted) {
			return fmt.Errorf("%w: job %d in state %d", ErrSnapshotMismatch, rt.spec.ID, state)
		}
		for _, c := range counts {
			if c < 0 || c > math.MaxInt32 {
				return fmt.Errorf("%w: job %d has a counter of %d", ErrSnapshotMismatch, rt.spec.ID, c)
			}
		}
		st.State = job.State(state)
		st.Acct.Suspensions = int32(counts[0])
		st.Acct.Restarts = int32(counts[1])
		st.Acct.WaitReschedules = int32(counts[2])
		st.Acct.Kills = int32(counts[3])
		if !w.validJobState(&st) {
			return fmt.Errorf("%w: job %d in state %v with pool %d and machine %d",
				ErrSnapshotMismatch, rt.spec.ID, st.State, st.Pool, st.Machine)
		}
		rt.RestoreState(st)
		rt.queued = d.Bool()
		rt.done = st.State == job.StateCompleted
		if rt.done && rt.queued {
			return fmt.Errorf("%w: completed job %d is queued", ErrSnapshotMismatch, rt.spec.ID)
		}
	}
	return d.Err()
}

// validJobState reports whether a restored job record, whose state
// loadJobs checked, can be handled: its pool and machine index the
// platform or are -1, a waiting, running or suspended job has a pool,
// and a running or suspended job has a machine.
func (w *world) validJobState(st *job.JobState) bool {
	if st.Pool < -1 || st.Pool >= len(w.pools) || st.Machine < -1 || st.Machine >= len(w.machines) {
		return false
	}
	switch st.State {
	case job.StateRunning, job.StateSuspended:
		return st.Pool >= 0 && st.Machine >= 0
	case job.StateWaiting:
		return st.Pool >= 0
	}
	return true
}

// handleSubmit routes a newly submitted job through the virtual pool
// manager and chains the next submission event. Dispatch to a pool at
// another site pays the one-way inter-site delay before arrival (the
// interval accrues as wait time, c1).
func (w *world) handleSubmit(idx int) error {
	if next := w.nextSubmit; next < len(w.specs) {
		w.schedule(w.specs[next].Submit, kSubmit, int64(next), 0)
		w.nextSubmit++
	}
	rt := &w.jobs[idx]
	eligible := w.eligiblePools(rt.spec)
	if len(eligible) == 0 {
		return fmt.Errorf("sim: job %d has no eligible candidate pool %v", rt.spec.ID, rt.spec.Candidates)
	}
	w.view.observe(rt.spec.Site)
	pool := w.cfg.Initial.SelectPool(rt.spec, eligible, &w.view)
	if !slices.Contains(eligible, pool) {
		return badPick("scheduler", w.cfg.Initial.Name(), rt.spec, pool, eligible)
	}
	if w.siteOf[pool] != rt.spec.Site {
		w.res.CrossSiteSubmits++
		if d := w.plat.RTT(rt.spec.Site, w.siteOf[pool]); d > 0 {
			w.schedule(w.now+d, kArrive, int64(idx), int64(pool))
			return nil
		}
	}
	return w.arrival(idx, pool)
}

// eligiblePools returns the job's eligible pools: its candidates whose
// pool has a machine class that fits it, in candidate order. This is
// the one place the simulator applies §2.1's static eligibility rule;
// schedulers and policies choose among the list. The list lives in
// the world's scratch buffer until the next call.
func (w *world) eligiblePools(spec *job.Spec) []int {
	w.eligible = w.eligible[:0]
	for _, p := range spec.Candidates {
		if w.pools[p].fits(spec) {
			w.eligible = append(w.eligible, p)
		}
	}
	return w.eligible
}

// badPick reports a scheduler's or policy's pick that is not one of
// the job's eligible pools.
func badPick(role, name string, spec *job.Spec, pick int, eligible []int) error {
	return fmt.Errorf("sim: %s %s picked pool %d for job %d, not one of its eligible pools %v",
		role, name, pick, spec.ID, eligible)
}

// arrival lands a job at a physical pool: start it, preempt for it, or
// queue it.
func (w *world) arrival(idx, pool int) error {
	rt := &w.jobs[idx]
	if err := rt.Enqueue(w.now, pool); err != nil {
		return err
	}
	return w.tryPlace(rt, w.pools[pool])
}

// tryPlace implements the physical pool manager's §2.1 dispatch rules.
func (w *world) tryPlace(rt *jobRT, p *poolRT) error {
	// (1) First eligible available machine.
	if mid := w.findFreeMachine(p, rt.spec); mid >= 0 {
		return w.startOn(rt, mid)
	}
	// (2) Preempt a lower-priority running job.
	if victim := p.findVictim(rt.spec, w.machines); victim != nil {
		return w.preempt(rt, victim)
	}
	// (3) Queue and wait.
	w.enqueue(rt, p)
	return nil
}

// findFreeMachine searches the pool's class free-stacks for the first
// available machine satisfying the spec, returning its ID or -1. Among
// per-class candidates the lowest machine ID wins, approximating the
// paper's "first eligible machine" list order deterministically.
func (w *world) findFreeMachine(p *poolRT, spec *job.Spec) int {
	best := -1
	for ci := range p.classes {
		cls := &p.classes[ci]
		if !cls.fits(spec) {
			continue
		}
		if mid := cls.findAvailable(w.machines, spec); mid >= 0 {
			if best == -1 || mid < best {
				best = mid
			}
		}
	}
	return best
}

// ensureFree registers a machine in its class free-stack when it has
// spare cores and is not already listed.
func (w *world) ensureFree(p *poolRT, mid int) {
	mach := &w.machines[mid]
	if mach.down || mach.freeCores <= 0 || mach.inFree {
		return
	}
	mach.inFree = true
	p.classes[mach.class].free = append(p.classes[mach.class].free, mid)
}

// startOn begins executing rt on machine mid.
func (w *world) startOn(rt *jobRT, mid int) error {
	mach := &w.machines[mid]
	spec := rt.spec
	if mach.down {
		return fmt.Errorf("job %d placed on down machine %d", spec.ID, mid)
	}
	if mach.freeCores < spec.Cores || mach.freeMemMB < spec.MemMB {
		return fmt.Errorf("job %d placed on machine %d without capacity", spec.ID, mid)
	}
	p := w.pools[mach.m.Pool]
	mach.freeCores -= spec.Cores
	mach.freeMemMB -= spec.MemMB
	p.busyCores += spec.Cores
	w.addBusy(mach.m.Pool, spec.Cores)
	if err := rt.Start(w.now, mid, mach.m.Speed); err != nil {
		return err
	}
	rt.finish = w.schedule(finishTime(rt), kFinish, int64(rt.idx), 0)
	p.pushRunning(rt)
	mach.running = append(mach.running, rt)
	w.noteAttach(rt, mach.m.Pool)
	w.ensureFree(p, mid)
	return nil
}

// finishTime is when a job that just started or resumed finishes: the
// time of that transition plus its remaining work at its machine's
// speed. A restore requires each running job's pending finish to be
// exactly this (see checkPinnedEvents).
func finishTime(rt *jobRT) float64 {
	since := rt.StateSince()
	return since + rt.RemainingAt(since)
}

// preempt suspends victim and installs rt on the freed machine, then
// arms the rescheduling decision for the victim.
func (w *world) preempt(rt *jobRT, victim *jobRT) error {
	mid := victim.Machine
	mach := &w.machines[mid]
	p := w.pools[mach.m.Pool]

	w.q.Cancel(victim.finish)
	if err := victim.Suspend(w.now); err != nil {
		return err
	}
	removeRunning(mach, victim)
	w.res.Preemptions++
	mach.freeCores += victim.spec.Cores
	mach.freeMemMB += victim.spec.MemMB
	p.busyCores -= victim.spec.Cores
	w.addBusy(mach.m.Pool, -victim.spec.Cores)
	mach.suspended = append(mach.suspended, victim)
	p.suspendedCnt++
	w.scopeSuspended++

	// A victim found through a stale running-stack entry may sit on
	// another site's machine (see findVictim): the preemptor starts there.
	if err := w.startOn(rt, mid); err != nil {
		return err
	}

	// The rescheduling decision for the fresh suspension (§3.2) happens
	// at the next agent sweep, DecisionDelay later. If the victim has
	// resumed (or been re-suspended and moved) by then, the stale event
	// is ignored.
	w.schedule(w.now+w.cfg.DecisionDelay, kSusDecide, int64(victim.idx), 0)

	// The victim may have freed more cores than the preemptor needs.
	return w.onFree(mid)
}

// enqueue parks a job in the pool's wait queue and arms the policy's
// wait-timeout timer.
func (w *world) enqueue(rt *jobRT, p *poolRT) {
	p.waitQ.push(rt)
	w.scopeWaiting++
	if th := w.cfg.Policy.WaitThreshold(); th > 0 {
		rt.waitTO = w.schedule(w.now+th, kWaitTimeout, int64(rt.idx), 0)
	}
}

// handleFinish completes a running job and redistributes its capacity.
func (w *world) handleFinish(idx int) error {
	rt := &w.jobs[idx]
	mid := rt.Machine
	mach := &w.machines[mid]
	p := w.pools[mach.m.Pool]
	if err := rt.Complete(w.now); err != nil {
		return err
	}
	if err := rt.CheckConservation(); err != nil {
		return err
	}
	w.completed++
	rt.done = true
	removeRunning(mach, rt)
	w.noteDetach(rt)
	mach.freeCores += rt.spec.Cores
	mach.freeMemMB += rt.spec.MemMB
	p.busyCores -= rt.spec.Cores
	w.addBusy(mach.m.Pool, -rt.spec.Cores)
	return w.onFree(mid)
}

// onFree hands freed capacity on machine mid to the host's suspended
// jobs first (NetBatch suspension is host-level, §2.2: the suspended
// process continues when its host frees, independent of the pool
// queue) and then to the pool wait queue in priority-FIFO order.
func (w *world) onFree(mid int) error {
	mach := &w.machines[mid]
	if mach.down {
		// Crashed or in maintenance: freed capacity is unusable until
		// the repair / window-end event redistributes it.
		return nil
	}
	p := w.pools[mach.m.Pool]
	for mach.freeCores > 0 {
		wrt := p.waitQ.peekFitting(mach)
		// The peek runs even when a resume wins: its compaction of the
		// queue's FIFOs is part of the saved, behavior-bearing layout.
		if srt := bestSuspended(mach); srt != nil {
			if err := w.resume(srt); err != nil {
				return err
			}
			continue
		}
		if wrt == nil {
			break
		}
		p.waitQ.remove(wrt)
		// A revived slot (see waitQueue) may hand us a job whose current
		// queue label is another pool, possibly at another site. It
		// starts on this machine all the same and keeps that label;
		// startOn flags it aliased when the sites differ.
		w.scopeWaiting--
		w.q.Cancel(wrt.waitTO)
		if err := w.startOn(wrt, mid); err != nil {
			return err
		}
	}
	w.ensureFree(p, mid)
	return nil
}

// machineFits checks dynamic fit of a spec on a machine. Free capacity
// is tested first: it rejects most wait-queue entries without reading
// the machine's OS.
func machineFits(mach *machineRT, spec *job.Spec) bool {
	if mach.freeCores < spec.Cores || mach.freeMemMB < spec.MemMB {
		return false
	}
	return spec.OS == "" || spec.OS == mach.m.OS
}

// bestSuspended returns the suspended job on mach that should resume
// next — highest priority, then earliest suspended — among those that
// fit the free capacity, or nil.
func bestSuspended(mach *machineRT) *jobRT {
	var best *jobRT
	for _, s := range mach.suspended {
		// A swapped-out job must re-acquire memory to resume.
		if mach.freeCores < s.spec.Cores || mach.freeMemMB < s.spec.MemMB {
			continue
		}
		if best == nil || s.spec.Priority > best.spec.Priority {
			best = s
		}
	}
	return best
}

// resume continues a suspended job on its host.
func (w *world) resume(rt *jobRT) error {
	mid := rt.Machine
	mach := &w.machines[mid]
	p := w.pools[mach.m.Pool]
	if !removeSuspended(mach, rt) {
		return fmt.Errorf("job %d missing from suspended list on resume", rt.spec.ID)
	}
	p.suspendedCnt--
	w.scopeSuspended--
	mach.freeCores -= rt.spec.Cores
	mach.freeMemMB -= rt.spec.MemMB
	p.busyCores += rt.spec.Cores
	w.addBusy(mach.m.Pool, rt.spec.Cores)
	if err := rt.Resume(w.now); err != nil {
		return err
	}
	rt.finish = w.schedule(finishTime(rt), kFinish, int64(rt.idx), 0)
	p.pushRunning(rt)
	mach.running = append(mach.running, rt)
	w.noteAttach(rt, mach.m.Pool)
	return nil
}

// removeSuspended deletes rt from the machine's suspended list.
func removeSuspended(mach *machineRT, rt *jobRT) bool {
	for i, s := range mach.suspended {
		if s == rt {
			mach.suspended = append(mach.suspended[:i], mach.suspended[i+1:]...)
			return true
		}
	}
	return false
}

// removeRunning deletes rt from the machine's running list. The list
// is bounded by the machine's core count, so the scan is tiny.
func removeRunning(mach *machineRT, rt *jobRT) bool {
	for i, s := range mach.running {
		if s == rt {
			mach.running = append(mach.running[:i], mach.running[i+1:]...)
			return true
		}
	}
	return false
}
