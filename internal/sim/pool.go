package sim

import (
	"slices"
	"sort"

	"netbatch/internal/cluster"
	"netbatch/internal/eventq"
	"netbatch/internal/job"
)

// jobRT is the simulator's per-job runtime record: the job's in-flight
// state (job.Live, which points at the outcome record the run keeps in
// Result.Jobs) and the engine's own bookkeeping. It lives only as long
// as the run.
type jobRT struct {
	job.Live
	idx  int // index into world.jobs and the spec slice
	spec *job.Spec

	// finish is the pending completion event, valid while running.
	finish eventq.Handle
	// waitTO is the pending wait-timeout event, valid while queued.
	waitTO eventq.Handle
	// queued marks live membership in a pool wait queue.
	queued bool
	// done marks a completed job, whose wait-queue slots can never
	// revive (see waitQueue.peekFitting).
	done bool
	// aliased marks a job attached to a machine (running or suspended)
	// at a site other than its queue-pool label's site — the product of
	// a cross-site alias dispatch (a revived wait-queue slot, or a
	// preemption installing a remote label on a local machine). Set by
	// world.noteAttach and cleared by world.noteDetach, which counts
	// the clear in Result.AliasRetirements.
	aliased bool
}

// machineRT is the dynamic state of one machine.
type machineRT struct {
	m *cluster.Machine
	// freeCores and freeMemMB track available capacity.
	freeCores int
	freeMemMB int
	// inFree marks membership in the class free-stack (deduplication).
	inFree bool
	// suspended holds preempted jobs parked on this host, in suspension
	// order (FIFO).
	suspended []*jobRT
	// running holds the jobs currently executing on this host, in start
	// order. Maintained for the fault handlers' kill sweeps; bounded
	// by the machine's core count.
	running []*jobRT
	// class is the index of the machine's class within its pool.
	class int
	// down marks the machine unavailable (crashed or in a maintenance
	// window): no placements, preemptions or resumes until it comes
	// back. Under the drain victim policy, running jobs continue to
	// completion on a down machine, but their freed capacity stays
	// unusable until the window ends.
	down bool
	// spanIdx indexes the machine's open downtime span in its site's
	// fault log while down.
	spanIdx int
}

// machineClass groups identical machines in a pool for fast
// availability search.
type machineClass struct {
	cores int
	memMB int
	speed float64
	os    string
	// free is a stack of machine IDs of this class with free capacity.
	// Entries may be stale (no free cores when popped); validity is
	// re-checked on pop. Sorted push order keeps selection deterministic.
	free []int
}

// fits reports whether the class's machines can ever run the spec.
func (c *machineClass) fits(spec *job.Spec) bool {
	if spec.OS != "" && spec.OS != c.os {
		return false
	}
	return c.memMB >= spec.MemMB && c.cores >= spec.Cores
}

// poolRT is the dynamic state of one physical pool.
type poolRT struct {
	pool *cluster.Pool
	// classes are the pool's machine classes.
	classes []machineClass
	// waitQ is the pool's wait queue.
	waitQ *waitQueue
	// running holds per-priority stacks of running jobs, indexed by
	// priority, most recent last, used for preemption victim selection;
	// a nil stack is a priority never pushed. Entries may be stale
	// (finished or departed) and are pruned during scans, and
	// pushRunning drops completed jobs' entries (see compactAt).
	running [][]*jobRT
	// busyCores counts cores currently executing jobs.
	busyCores int
	// suspendedCnt counts jobs suspended within the pool.
	suspendedCnt int
}

// fits reports whether some machine class of the pool can ever run
// spec: a pool where none can is not eligible for the job ("none of
// the machines in the list is eligible" → the virtual pool manager
// tries the next pool, §2.1).
func (p *poolRT) fits(spec *job.Spec) bool {
	for ci := range p.classes {
		if p.classes[ci].fits(spec) {
			return true
		}
	}
	return false
}

// newPoolRT builds runtime state for a pool, grouping machines into
// classes.
func newPoolRT(plat *cluster.Platform, pool *cluster.Pool, machines []machineRT) *poolRT {
	rt := &poolRT{
		pool:  pool,
		waitQ: &waitQueue{},
	}
	type classKey struct {
		cores int
		memMB int
		speed float64
		os    string
	}
	index := make(map[classKey]int)
	for _, mid := range pool.Machines {
		m := plat.Machine(mid)
		key := classKey{m.Cores, m.MemMB, m.Speed, m.OS}
		ci, ok := index[key]
		if !ok {
			ci = len(rt.classes)
			index[key] = ci
			rt.classes = append(rt.classes, machineClass{
				cores: m.Cores, memMB: m.MemMB, speed: m.Speed, os: m.OS,
			})
		}
		machines[mid].class = ci
		rt.classes[ci].free = append(rt.classes[ci].free, mid)
	}
	// Free stacks pop from the end; reverse-sort so the lowest machine
	// ID pops first ("the first eligible machine", §2.1).
	for ci := range rt.classes {
		sort.Sort(sort.Reverse(sort.IntSlice(rt.classes[ci].free)))
		for _, mid := range rt.classes[ci].free {
			machines[mid].inFree = true
		}
	}
	return rt
}

// freeScanLimit bounds how many live free-stack entries a class scan
// inspects. Entries below the limit are only missed when many
// partially-occupied machines sit above them, which is rare because the
// stack is dominated by fully-free machines at low utilization and
// empty at high utilization.
const freeScanLimit = 64

// findAvailable returns the topmost machine of the class that can run
// spec right now, or -1. Exhausted entries (no free cores) encountered
// during the scan are dropped from the stack.
func (c *machineClass) findAvailable(machines []machineRT, spec *job.Spec) int {
	scanned := 0
	for i := len(c.free) - 1; i >= 0 && scanned < freeScanLimit; i-- {
		mid := c.free[i]
		mach := &machines[mid]
		if mach.freeCores <= 0 {
			mach.inFree = false
			c.free = append(c.free[:i], c.free[i+1:]...)
			continue
		}
		if mach.down {
			// Down machines leave the stack like exhausted ones (no scan
			// budget spent); the repair / window-end handler re-registers
			// them through ensureFree.
			mach.inFree = false
			c.free = append(c.free[:i], c.free[i+1:]...)
			continue
		}
		scanned++
		if mach.freeCores >= spec.Cores && mach.freeMemMB >= spec.MemMB {
			return mid
		}
	}
	return -1
}

// compactAt is the smallest victim stack pushRunning compacts.
const compactAt = 32

// pushRunning records a job as running in the pool. A completed job
// never runs again, so findVictim only ever prunes its entries; when a
// stack's length reaches a power of two (from compactAt on), they are
// dropped in one pass. The rule reads only saved state, the stack and
// which jobs completed, so a resumed run compacts at the same pushes
// as the straight run, and no victim choice changes.
func (p *poolRT) pushRunning(rt *jobRT) {
	prio := int(rt.spec.Priority)
	for len(p.running) <= prio {
		p.running = append(p.running, nil)
	}
	stack := append(p.running[prio], rt)
	if n := len(stack); n >= compactAt && n&(n-1) == 0 {
		stack = slices.DeleteFunc(stack, func(v *jobRT) bool { return v.done })
	}
	p.running[prio] = stack
}

// findVictim scans running jobs of priority strictly below prio, most
// recently started first, for one whose preemption would let spec run
// on its machine. It returns nil if none qualifies. Stale entries are
// pruned; the returned victim is removed from the stack.
func (p *poolRT) findVictim(spec *job.Spec, machines []machineRT) *jobRT {
	for vp := 1; vp < int(spec.Priority) && vp < len(p.running); vp++ {
		stack := p.running[vp]
		for i := len(stack) - 1; i >= 0; i-- {
			v := stack[i]
			// Prune entries that are no longer running in this pool. Note
			// the test reads j.Pool — the pool of the job's last enqueue —
			// not the machine's pool: an alias-revived slot (see waitQueue)
			// can dispatch a job onto another pool's machine, and its old
			// entry here then still matches. Preempting such a victim
			// installs this pool's arrival on the other pool's machine —
			// possibly at another site — which is deliberate, preserved
			// seed behavior.
			if v.State() != job.StateRunning || v.Pool != p.pool.ID {
				stack = append(stack[:i], stack[i+1:]...)
				continue
			}
			mach := &machines[v.Machine]
			// A draining machine's jobs run to completion but free no
			// usable capacity, so preempting them is pointless.
			if mach.down || !victimWorks(v, mach, spec) {
				continue
			}
			stack = append(stack[:i], stack[i+1:]...)
			p.running[vp] = stack
			return v
		}
		p.running[vp] = stack
	}
	return nil
}

// victimWorks reports whether suspending v frees enough of its machine
// for spec. Suspension swaps the victim out, releasing its memory.
func victimWorks(v *jobRT, mach *machineRT, spec *job.Spec) bool {
	if spec.OS != "" && spec.OS != mach.m.OS {
		return false
	}
	return mach.freeCores+v.spec.Cores >= spec.Cores && mach.freeMemMB+v.spec.MemMB >= spec.MemMB
}
