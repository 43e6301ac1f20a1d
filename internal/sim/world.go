package sim

import (
	"fmt"
	"math"

	"netbatch/internal/cluster"
	"netbatch/internal/eventq"
	"netbatch/internal/job"
	"netbatch/internal/stats"
)

// This file holds a run's one state struct, world, and the fixed table
// of event kinds its dispatch switches on. The handlers are world
// methods in the mechanism files the package doc lists.

var inf = math.Inf(1)

// kind numbers an event kind. Snapshots store each pending event's
// kind by number and guard the table with kindTableHash, so the
// numbering is part of the snapshot format, and adding or renumbering
// a kind makes older snapshots unresumable. The fault kinds come last
// and exist only with faults on (see numKinds), so a fault-free run's
// table and hash do not include them. Kind numbers never influence
// event order: the queue orders on (time, scheduling order) alone.
type kind int

// The event kinds and their payload words (a, b); unused words are 0.
const (
	kSubmit      kind = iota + 1 // a: job
	kArrive                      // a: job, b: destination pool
	kFinish                      // a: job
	kSusDecide                   // a: job
	kWaitTimeout                 // a: job
	kSnapshot                    // a: observer site, b: target site
	kCrash                       // a: site
	kRepair                      // a: machine
	kMaintStart                  // a: site
	kMaintEnd                    // a: site
)

// kindNames are the kinds' diagnostic names, printed in restore errors
// and hashed by kindTableHash. Index 0 is unused, so the zero kind is never
// valid.
var kindNames = [...]string{
	kSubmit:      "submit",
	kArrive:      "arrive",
	kFinish:      "finish",
	kSusDecide:   "susDecide",
	kWaitTimeout: "waitTimeout",
	kSnapshot:    "snapshot",
	kCrash:       "fault.crash",
	kRepair:      "fault.repair",
	kMaintStart:  "fault.maintStart",
	kMaintEnd:    "fault.maintEnd",
}

// numKinds returns one past the run's highest kind: the fault kinds
// exist only when faults are enabled.
func (w *world) numKinds() int {
	if w.faults == nil {
		return int(kCrash)
	}
	return len(kindNames)
}

// dispatch applies one popped event.
func (w *world) dispatch(ev eventq.Event) error {
	a := int(ev.A)
	switch kind(ev.Kind) {
	case kSubmit:
		return w.handleSubmit(a)
	case kArrive:
		return w.arrival(a, int(ev.B))
	case kFinish:
		return w.handleFinish(a)
	case kSusDecide:
		return w.handleSusDecide(a)
	case kWaitTimeout:
		return w.handleWaitTimeout(a)
	case kSnapshot:
		w.handleSnapshot(a, int(ev.B))
		return nil
	case kCrash:
		return w.handleCrash(a)
	case kRepair:
		return w.handleRepair(a)
	case kMaintStart:
		return w.handleMaintStart(a)
	case kMaintEnd:
		return w.handleMaintEnd(a)
	}
	return fmt.Errorf("sim: unknown event kind %d", ev.Kind)
}

// eventInRange reports whether a restored event's payload words index
// the run's state: a job of the submitted prefix for the job-carrying
// kinds, arrive's destination pool, both sites of a view refresh, the
// site of a crash or window, the machine of a repair. Words a kind
// does not use are not checked.
func (w *world) eventInRange(kd kind, a, b int64) bool {
	in := func(x int64, n int) bool { return x >= 0 && x < int64(n) }
	switch kd {
	case kSubmit, kFinish, kSusDecide, kWaitTimeout:
		return in(a, w.nextSubmit)
	case kArrive:
		return in(a, w.nextSubmit) && in(b, len(w.pools))
	case kSnapshot:
		return in(a, w.nSites) && in(b, w.nSites)
	case kCrash, kMaintStart, kMaintEnd:
		return in(a, w.nSites)
	case kRepair:
		return in(a, len(w.machines))
	}
	return false
}

// maxPriority bounds job priorities: each pool keeps one victim stack
// per priority, indexed by it, and a preemption scans the priorities
// below the arriving job's.
const maxPriority = 1 << 10

// world is one run's complete simulation state: configuration and
// platform topology, the event loop's clock and queue, the runtime
// records of every machine, pool and job, and the state the handlers
// share. Checkpoints save it through stateCodecs.
type world struct {
	cfg   Config
	plat  *cluster.Platform
	specs []job.Spec

	nSites     int
	siteOf     []int // pool -> site
	siteCores  []int
	totalCores int

	// start is the first submission time; it anchors the sample-tick
	// grid and the initial snapshot-chain events.
	start float64

	// q is the future event list, now the clock, and events the number
	// of dispatched events.
	q      *eventq.Queue
	now    float64
	events int64

	// nextSubmit is the index of the next spec whose submit event is
	// not yet scheduled: submissions chain one event at a time, in spec
	// order.
	nextSubmit int
	// resumed marks a world restored from a snapshot (see broken).
	resumed bool

	// The platform-wide signals accounting samples, and the number of
	// completed jobs.
	scopeBusy      int
	scopeSuspended int
	scopeWaiting   int
	completed      int

	// Mutable runtime state.
	machines []machineRT
	pools    []*poolRT
	jobs     []jobRT
	siteBusy []int

	// snap is the stale utilization view storage: snap[obs][pool] is
	// observer site obs's aged view of pool. Nil when every
	// (observer, target) ageing delay is zero (all reads live).
	snap [][]float64

	// machBySite[s] lists the machine IDs at site s, and faults[s] is
	// the site's fault/maintenance state (RNG stream, downtime spans,
	// window rotation). Both nil unless cfg.Faults is enabled.
	machBySite [][]int
	faults     []siteFaults

	view poolView
	acct accounting

	// eligible is eligiblePools' scratch: one decision's eligible pools.
	eligible []int

	// res accumulates the Result counters; runSerial completes it.
	res Result
}

// buildWorld validates the specs against the platform and allocates
// the run's state. cfg must already have defaults applied.
func buildWorld(cfg Config, specs []job.Spec) (*world, error) {
	plat := cfg.Platform
	w := &world{cfg: cfg, plat: plat, specs: specs, q: eventq.New()}
	w.machines = make([]machineRT, plat.NumMachines())
	for i := 0; i < plat.NumMachines(); i++ {
		m := plat.Machine(i)
		w.machines[i] = machineRT{m: m, freeCores: m.Cores, freeMemMB: m.MemMB}
		w.totalCores += m.Cores
	}
	w.pools = make([]*poolRT, plat.NumPools())
	for p := 0; p < plat.NumPools(); p++ {
		w.pools[p] = newPoolRT(plat, plat.Pool(p), w.machines)
	}
	w.nSites = plat.NumSites()
	w.siteOf = make([]int, plat.NumPools())
	w.siteBusy = make([]int, w.nSites)
	w.siteCores = make([]int, w.nSites)
	for p := 0; p < plat.NumPools(); p++ {
		s := plat.SiteOf(p)
		w.siteOf[p] = s
		w.siteCores[s] += plat.Pool(p).Cores
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		for _, c := range specs[i].Candidates {
			if c >= plat.NumPools() {
				return nil, fmt.Errorf("sim: job %d references pool %d beyond platform's %d pools",
					specs[i].ID, c, plat.NumPools())
			}
		}
		if p := specs[i].Priority; p > maxPriority {
			return nil, fmt.Errorf("sim: job %d has priority %d, above the simulator's %d levels",
				specs[i].ID, p, maxPriority)
		}
		if s := specs[i].Site; s >= w.nSites {
			return nil, fmt.Errorf("sim: job %d submitted from site %d beyond platform's %d sites",
				specs[i].ID, s, w.nSites)
		}
	}
	// One slab holds every job's outcome record, each pointing at its
	// spec: a year-scale run makes one allocation here instead of one
	// per job. The slab outlives the run as Result.Jobs; the in-flight
	// state in w.jobs does not.
	slab := job.NewSlab(specs)
	w.jobs = make([]jobRT, len(specs))
	for i := range slab {
		w.jobs[i] = jobRT{Live: job.Track(&slab[i]), idx: i, spec: &specs[i]}
	}
	if len(specs) > 0 {
		w.start = specs[0].Submit
	}
	if w.stale() {
		w.snap = make([][]float64, w.nSites)
		for obs := range w.snap {
			w.snap[obs] = make([]float64, len(w.pools))
		}
	}
	if cfg.Faults.enabled() {
		w.machBySite = make([][]int, w.nSites)
		for p := 0; p < plat.NumPools(); p++ {
			s := w.siteOf[p]
			w.machBySite[s] = append(w.machBySite[s], plat.Pool(p).Machines...)
		}
		w.faults = make([]siteFaults, w.nSites)
		root := stats.NewRNG(cfg.Faults.Seed)
		for s := range w.faults {
			// Each site gets an independent keyed stream so fault
			// sequences do not depend on site count or the draws of any
			// other site.
			w.faults[s].rng = root.SplitKey(uint64(s))
			if cfg.Faults.MaintPeriod > 0 {
				// Stagger first windows across sites: offsets of
				// (s+1)/(nSites+1) of a period never coincide, so no two
				// sites take machines down at the same instant.
				w.faults[s].maintNext = w.start +
					cfg.Faults.MaintPeriod*float64(s+1)/float64(w.nSites+1)
			}
		}
	}
	w.view.w = w
	w.acct = newAccounting(w)
	return w, nil
}

// ageDelay returns the view-ageing period for observer site obs
// reading a pool at site tgt: the configured staleness plus the
// inter-site delay.
func (w *world) ageDelay(obs, tgt int) float64 {
	return w.cfg.UtilStaleness + w.plat.RTT(obs, tgt)
}

// stale reports whether any (observer, target) pair has a non-zero
// ageing delay, i.e. whether snapshot storage and refresh chains are
// needed at all.
func (w *world) stale() bool {
	if w.cfg.UtilStaleness > 0 {
		return true
	}
	for obs := 0; obs < w.nSites; obs++ {
		for tgt := 0; tgt < w.nSites; tgt++ {
			if w.ageDelay(obs, tgt) > 0 {
				return true
			}
		}
	}
	return false
}

// schedule adds an event at time t with payload words (a, b).
func (w *world) schedule(t float64, kd kind, a, b int64) eventq.Handle {
	return w.q.Schedule(t, int(kd), a, b)
}

// seed schedules the run's initial events: the first submission, and
// the snapshot refresh chains for every (observer, target) site pair
// with a non-zero ageing delay — both at the run's start time,
// submission first. One refresh chain runs per pair; on a single-site
// platform with UtilStaleness > 0 that is exactly one chain,
// reproducing the historical single-snapshot behavior.
func (w *world) seed() {
	if len(w.specs) == 0 {
		return
	}
	w.schedule(w.specs[0].Submit, kSubmit, 0, 0)
	w.nextSubmit = 1
	// Stale utilization views refresh on the sample-tick grid; only
	// those (rare) refresh points need real events.
	if !w.cfg.DisableSampling {
		for obs := range w.nSites {
			for tgt := range w.nSites {
				if w.ageDelay(obs, tgt) > 0 {
					w.schedule(w.start, kSnapshot, int64(obs), int64(tgt))
				}
			}
		}
	}
	// Fault chains seed last: they start strictly after the trace
	// start (staggered windows, exponential first-crash gaps), so the
	// relative order here only keeps scheduling-order stable.
	if w.faults != nil {
		w.seedFaults()
	}
}

// noteAttach flags a job aliased when the machine it acquires sits at
// a site other than its queue-pool label's site (see jobRT.aliased).
// Called from startOn and resume, the two points where a job acquires
// a machine.
func (w *world) noteAttach(rt *jobRT, machPool int) {
	if w.siteOf[rt.Pool] != w.siteOf[machPool] {
		rt.aliased = true
	}
}

// noteDetach retires a job's alias flag when it leaves its machine
// (completion, suspended departure, or fault kill) and counts the
// retirement in Result.AliasRetirements.
func (w *world) noteDetach(rt *jobRT) {
	if !rt.aliased {
		return
	}
	rt.aliased = false
	w.res.AliasRetirements++
}

// rebuildAliased recomputes every job's alias flag from restored job
// and machine state: a job is aliased iff it is attached to a machine
// (running or suspended-on-machine) whose pool's site differs from the
// job's label pool's site. Snapshots do not persist the flags — they
// are a pure function of the state they do persist — so checkpoint
// restore calls this after every codec has loaded.
func (w *world) rebuildAliased() {
	for i := range w.jobs {
		rt := &w.jobs[i]
		rt.aliased = false
		st := rt.State()
		if st != job.StateRunning && st != job.StateSuspended {
			continue
		}
		rt.aliased = w.siteOf[rt.Pool] != w.siteOf[w.machines[rt.Machine].m.Pool]
	}
}

// addBusy applies a busy-core change for a machine of the given pool
// to the platform counter (what the utilization series reads) and the
// machine site's counter (what the per-site series read).
func (w *world) addBusy(pool, delta int) {
	w.scopeBusy += delta
	w.siteBusy[w.siteOf[pool]] += delta
}

// finalizeJobs assembles the job parts of a Result from the world's
// job records: completion check, job list, and makespan.
func (w *world) finalizeJobs(res *Result) error {
	res.Jobs = make([]*job.Job, len(w.jobs))
	for i := range w.jobs {
		res.Jobs[i] = w.jobs[i].Job
		if w.jobs[i].State() != job.StateCompleted {
			return fmt.Errorf("sim: job %d finished run in state %v",
				w.jobs[i].spec.ID, w.jobs[i].State())
		}
		if c := w.jobs[i].Completed; c > res.Makespan {
			res.Makespan = c
		}
	}
	return nil
}
