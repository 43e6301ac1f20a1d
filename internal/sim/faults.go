package sim

import (
	"fmt"
	"math"
	"slices"

	"netbatch/internal/snap"
	"netbatch/internal/stats"
)

// This file is faults and maintenance: deterministic machine crashes
// (exponential inter-crash and repair times per site) and scheduled
// maintenance windows (fixed cadence, rotating machine blocks).
//
// All four fault kinds are capacity handoffs: their handlers take one
// site's machines down or bring them back, and redistribute the freed
// capacity (a repair, a window end, or the requeue cascade of a kill)
// through the same wait-queue path as completions.
//
// Determinism: each site's stream is forked from FaultConfig.Seed with
// stats.SplitKey, so it is independent of site count and every other
// site's draws. With the zero FaultConfig the fault kinds and the
// "faults" codec section do not exist in the run — no events, no RNG
// construction, outputs byte-identical to pre-fault builds.

// Victim-job policies for machines taken down by maintenance windows.
// Crashes are unplanned and always kill-and-requeue.
const (
	// VictimRequeue kills every job running or suspended on the
	// machine and requeues it through the existing wait-queue path of
	// its pool (progress destroyed, like any NetBatch restart).
	VictimRequeue = "requeue"
	// VictimDrain lets running jobs finish on the machine while it
	// accepts no new placements, preemptions or resumes; suspended
	// jobs stay parked until the window ends, unless a pending
	// rescheduling sweep (§3.2) moves one to another pool meanwhile —
	// the dynamic-rescheduling mechanism keeps working during windows.
	VictimDrain = "drain"
)

// FaultConfig parameterizes the fault & maintenance model. The zero
// value disables it entirely: no fault events are scheduled, no RNG
// state is created, and every output is byte-identical to a run
// without it.
type FaultConfig struct {
	// MTBF is the mean time between machine crashes per site, in
	// minutes (exponential gaps). 0 disables crashes.
	MTBF float64
	// MTTR is the mean repair time in minutes (exponential). Required
	// when MTBF > 0.
	MTTR float64
	// MaintPeriod is the cadence of scheduled per-site maintenance
	// windows in minutes. 0 disables windows. First windows are
	// staggered across sites.
	MaintPeriod float64
	// MaintDuration is each window's length in minutes. Must be
	// positive and below MaintPeriod when windows are enabled.
	MaintDuration float64
	// MaintFraction is the fraction of a site's machines taken down
	// per window (a rotating contiguous block, at least one machine).
	// Defaults to 0.25 when windows are enabled.
	MaintFraction float64
	// Victim selects the maintenance victim-job policy: VictimRequeue
	// (default) or VictimDrain.
	Victim string
	// Seed drives the per-site fault streams (crash gaps, victim
	// machines, repair durations), forked per site with stats.SplitKey.
	Seed uint64
}

// enabled reports whether any fault mechanism is configured.
func (f *FaultConfig) enabled() bool { return f.MTBF > 0 || f.MaintPeriod > 0 }

// validate normalizes defaults and reports configuration errors.
// Called from Config.withDefaults; a disabled config is left untouched.
func (f *FaultConfig) validate() error {
	if f.MTBF < 0 || f.MTTR < 0 || f.MaintPeriod < 0 || f.MaintDuration < 0 {
		return fmt.Errorf("negative fault parameter %+v", *f)
	}
	if !f.enabled() {
		return nil
	}
	if f.MTBF > 0 && f.MTTR <= 0 {
		return fmt.Errorf("crashes need a positive MTTR (got %v)", f.MTTR)
	}
	if f.MaintPeriod > 0 {
		if f.MaintDuration <= 0 || f.MaintDuration >= f.MaintPeriod {
			return fmt.Errorf("maintenance duration %v outside (0, period %v)",
				f.MaintDuration, f.MaintPeriod)
		}
		if f.MaintFraction < 0 || f.MaintFraction > 1 {
			return fmt.Errorf("maintenance fraction %v outside [0,1]", f.MaintFraction)
		}
		if f.MaintFraction == 0 {
			f.MaintFraction = 0.25
		}
	}
	switch f.Victim {
	case "":
		f.Victim = VictimRequeue
	case VictimRequeue, VictimDrain:
	default:
		return fmt.Errorf("unknown victim policy %q (want %q or %q)",
			f.Victim, VictimRequeue, VictimDrain)
	}
	return nil
}

// Downtime span categories.
const (
	spanCrash = int8(iota)
	spanMaint
)

// downSpan is one machine's downtime interval in a site's fault log;
// to stays +inf while the machine is down. Result counters derive from
// the logs clamped to the makespan (see finalizeFaults).
type downSpan struct {
	from, to float64
	cores    int
	kind     int8
}

// siteFaults is one site's fault state.
type siteFaults struct {
	rng *stats.RNG
	// spans logs every downtime interval of the site's machines.
	spans []downSpan
	// windowStarts logs maintenance window start times.
	windowStarts []float64
	// workLost accumulates execution wall-clock destroyed by the
	// site's kills. finalizeFaults sums the sites in index order; the
	// per-site grouping fixes the float addition order, which the
	// reported totals depend on.
	workLost float64
	// maintNext is the next window start; maintIdx rotates the window's
	// machine block through the site.
	maintNext float64
	maintIdx  int
	// open holds the machine block of every window still open, oldest
	// first; each window's maintEnd event closes the oldest. Windows
	// share one duration, so they close in the order they opened — but
	// a window's end can round onto the next window's start, and the
	// start then fires first, so two blocks can be open at once.
	open [][]int
}

// saveFaults dumps each site's fault-process state: the position of
// its private RNG stream (so resumed crash gaps, victim draws and
// repair times continue the exact sequence), the downtime span log and
// window-start log the Result counters derive from, the accumulated
// work-lost float, the maintenance rotation and the open windows'
// machine blocks.
func (w *world) saveFaults(e *snap.Encoder) {
	for site := range w.nSites {
		f := &w.faults[site]
		f.rng.SaveState(e)
		e.Int(len(f.spans))
		for _, sp := range f.spans {
			e.F64(sp.from)
			e.F64(sp.to)
			e.Int(sp.cores)
			e.Int(int(sp.kind))
		}
		e.F64s(f.windowStarts)
		e.F64(f.workLost)
		e.F64(f.maintNext)
		e.Int(f.maintIdx)
		e.Int(len(f.open))
		for _, block := range f.open {
			e.Ints(block)
		}
	}
}

// loadFaults mirrors saveFaults. It runs after loadPlacement, so it
// can check the restored fault state against the machines: the
// rotation index must be non-negative, every down machine of the site
// must own a span in the site's log, and an open block may name only
// down machines of its site.
func (w *world) loadFaults(d *snap.Decoder) error {
	for site := range w.nSites {
		f := &w.faults[site]
		if err := f.rng.LoadState(d); err != nil {
			return fmt.Errorf("site %d fault stream: %w", site, err)
		}
		// A span is four words and a block at least its length word.
		f.spans = make([]downSpan, d.Count(-1, 32))
		for i := range f.spans {
			f.spans[i] = downSpan{
				from: d.F64(), to: d.F64(), cores: d.Int(), kind: int8(d.Int()),
			}
		}
		f.windowStarts = d.F64sN(-1)
		f.workLost = d.F64()
		f.maintNext = d.F64()
		f.maintIdx = d.Int()
		if d.Err() == nil && f.maintIdx < 0 {
			return fmt.Errorf("%w: site %d maintenance rotation index %d", ErrSnapshotMismatch, site, f.maintIdx)
		}
		for _, mid := range w.machBySite[site] {
			if m := &w.machines[mid]; m.down && (m.spanIdx < 0 || m.spanIdx >= len(f.spans)) {
				return fmt.Errorf("%w: down machine %d has span %d of site %d's %d",
					ErrSnapshotMismatch, mid, m.spanIdx, site, len(f.spans))
			}
		}
		f.open = make([][]int, d.Count(-1, 8))
		for i := range f.open {
			f.open[i] = d.IntsN(len(w.machBySite[site]))
			for _, mid := range f.open[i] {
				if mid < 0 || mid >= len(w.machines) || !w.machines[mid].down ||
					w.siteOf[w.machines[mid].m.Pool] != site {
					return fmt.Errorf("%w: site %d open maintenance block names machine %d, not a down machine of the site",
						ErrSnapshotMismatch, site, mid)
				}
			}
		}
	}
	return d.Err()
}

// seedFaults schedules each site's first crash and first maintenance
// window. Both chains start strictly after the trace start and re-arm
// themselves from their handlers, like the submission chain.
func (w *world) seedFaults() {
	cfg := &w.cfg.Faults
	for site := range w.nSites {
		f := &w.faults[site]
		if cfg.MTBF > 0 {
			w.schedule(w.start+f.rng.Exp(cfg.MTBF), kCrash, int64(site), 0)
		}
		if cfg.MaintPeriod > 0 {
			w.schedule(f.maintNext, kMaintStart, int64(site), 0)
		}
	}
}

// handleCrash fails one machine at the site: a uniformly drawn victim
// among the machines currently up loses all its jobs (killed and
// requeued through the pool's wait-queue path) and stays down for an
// exponential repair time. The next crash is chained first so the
// site's stream order is (gap, victim, repair) per crash.
func (w *world) handleCrash(site int) error {
	cfg := &w.cfg.Faults
	f := &w.faults[site]
	w.schedule(w.now+f.rng.Exp(cfg.MTBF), kCrash, int64(site), 0)

	ups := make([]int, 0, len(w.machBySite[site]))
	for _, mid := range w.machBySite[site] {
		if !w.machines[mid].down {
			ups = append(ups, mid)
		}
	}
	if len(ups) == 0 {
		return nil // whole site already down; the crash is absorbed
	}
	mid := ups[f.rng.IntN(len(ups))]
	w.takeDown(site, mid, spanCrash)
	if err := w.killMachineJobs(mid); err != nil {
		return err
	}
	w.schedule(w.now+f.rng.Exp(cfg.MTTR), kRepair, int64(mid), 0)
	return nil
}

// handleRepair brings a crashed machine back and redistributes its
// capacity through the standard handoff path.
func (w *world) handleRepair(mid int) error {
	w.bringUp(mid)
	return w.onFree(mid)
}

// handleMaintStart opens a maintenance window at the site: a rotating
// contiguous block of MaintFraction of its machines goes down for
// MaintDuration minutes, with victims handled per the configured
// policy. Machines already down (crashed) are skipped — their repair
// owns their recovery. The next window is chained immediately.
func (w *world) handleMaintStart(site int) error {
	cfg := &w.cfg.Faults
	f := &w.faults[site]
	f.windowStarts = append(f.windowStarts, w.now)
	w.schedule(w.now+cfg.MaintPeriod, kMaintStart, int64(site), 0)

	machines := w.machBySite[site]
	count := int(math.Round(cfg.MaintFraction * float64(len(machines))))
	if count < 1 {
		count = 1
	}
	if count > len(machines) {
		count = len(machines)
	}
	start := f.maintIdx % len(machines)
	f.maintIdx += count
	// The window is atomic: every machine in the block goes down before
	// any victim is handled, so a kill-and-requeue cannot land a victim
	// on a machine the same window is about to take away.
	taken := make([]int, 0, count)
	for i := 0; i < count; i++ {
		mid := machines[(start+i)%len(machines)]
		if w.machines[mid].down {
			continue
		}
		w.takeDown(site, mid, spanMaint)
		taken = append(taken, mid)
	}
	if cfg.Victim == VictimRequeue {
		for _, mid := range taken {
			if err := w.killMachineJobs(mid); err != nil {
				return err
			}
		}
	}
	if len(taken) > 0 {
		f.open = append(f.open, taken)
		w.schedule(w.now+cfg.MaintDuration, kMaintEnd, int64(site), 0)
	}
	return nil
}

// handleMaintEnd closes the site's oldest open window: every machine
// it took down comes back and hands its capacity off (resuming drained
// suspended jobs first, then serving the wait queue, like any freed
// capacity).
func (w *world) handleMaintEnd(site int) error {
	f := &w.faults[site]
	if len(f.open) == 0 { // only a resumed snapshot can pair an end with no block
		return fmt.Errorf("%w: site %d window end with no window open", ErrSnapshotMismatch, site)
	}
	taken := f.open[0]
	f.open = slices.Delete(f.open, 0, 1)
	for _, mid := range taken {
		w.bringUp(mid)
		if err := w.onFree(mid); err != nil {
			return err
		}
	}
	return nil
}

// takeDown marks the machine down and opens its downtime span.
func (w *world) takeDown(site, mid int, spanKind int8) {
	f := &w.faults[site]
	mach := &w.machines[mid]
	mach.down = true
	mach.spanIdx = len(f.spans)
	f.spans = append(f.spans, downSpan{from: w.now, to: inf, cores: mach.m.Cores, kind: spanKind})
}

// bringUp clears the down mark and closes the machine's span.
func (w *world) bringUp(mid int) {
	mach := &w.machines[mid]
	site := w.siteOf[mach.m.Pool]
	w.faults[site].spans[mach.spanIdx].to = w.now
	mach.down = false
}

// killMachineJobs kills every job running or suspended on mid —
// running jobs in start order, then suspended jobs in suspension
// order — and requeues each through the existing wait-queue path of
// its current pool. The machine must already be marked down, so the
// requeue cascade can never place a job back onto it.
func (w *world) killMachineJobs(mid int) error {
	mach := &w.machines[mid]
	p := w.pools[mach.m.Pool]
	site := w.siteOf[mach.m.Pool]
	for len(mach.running) > 0 {
		rt := mach.running[0]
		mach.running = mach.running[1:]
		w.noteDetach(rt)
		w.q.Cancel(rt.finish)
		mach.freeCores += rt.spec.Cores
		mach.freeMemMB += rt.spec.MemMB
		p.busyCores -= rt.spec.Cores
		w.addBusy(mach.m.Pool, -rt.spec.Cores)
		if err := w.killAndRequeue(rt, mach.m.Pool, site); err != nil {
			return err
		}
	}
	for len(mach.suspended) > 0 {
		rt := mach.suspended[0]
		mach.suspended = mach.suspended[1:]
		w.noteDetach(rt)
		p.suspendedCnt--
		w.scopeSuspended--
		if err := w.killAndRequeue(rt, mach.m.Pool, site); err != nil {
			return err
		}
	}
	return nil
}

// killAndRequeue destroys rt's progress and lands it back at pool as a
// fresh arrival (start elsewhere, preempt, or queue — §2.1 rules).
func (w *world) killAndRequeue(rt *jobRT, pool, site int) error {
	before := rt.Acct().WastedExec
	if err := rt.Kill(w.now); err != nil {
		return err
	}
	w.faults[site].workLost += rt.Acct().WastedExec - before
	w.res.Kills++
	w.res.Requeues++
	return w.arrival(rt.idx, pool)
}

// finalizeFaults derives the fault counters from the per-site downtime
// logs, clamped to the makespan: the loop stops at the final
// completion, leaving open spans behind, so a span still open counts
// only up to the makespan. Crash/window events at or after the
// makespan never count.
func (w *world) finalizeFaults(res *Result) {
	if w.faults == nil {
		return
	}
	for s := range w.faults {
		f := &w.faults[s]
		res.WorkLost += f.workLost
		for _, span := range f.spans {
			if span.from >= res.Makespan {
				continue
			}
			to := math.Min(span.to, res.Makespan)
			res.DownCoreMinutes += float64(span.cores) * (to - span.from)
			if span.kind == spanCrash {
				res.Crashes++
			}
		}
		for _, t := range f.windowStarts {
			if t < res.Makespan {
				res.MaintWindows++
			}
		}
	}
}
