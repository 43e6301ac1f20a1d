package sim

import (
	"fmt"
	"math"

	"netbatch/internal/cluster"
	"netbatch/internal/job"
	"netbatch/internal/stats"
)

var inf = math.Inf(1)

// world is the run-wide context: configuration, platform topology,
// validated specs, and the backing arrays of machine, pool and job
// runtime state.
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

	// aliasRetired counts this run's alias-flag clears for
	// Result.AliasRetirements (see noteDetach).
	aliasRetired int64

	// met holds the run's pre-resolved observability handles; the zero
	// value (Config.Metrics nil) makes every record site a nil check.
	met simMetrics
}

// buildWorld validates the specs against the platform and allocates
// the shared runtime state. cfg must already have defaults applied.
func buildWorld(cfg Config, specs []job.Spec) (*world, error) {
	plat := cfg.Platform
	w := &world{cfg: cfg, plat: plat, specs: specs, met: newSimMetrics(cfg.Metrics)}
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
		if s := specs[i].Site; s >= w.nSites {
			return nil, fmt.Errorf("sim: job %d submitted from site %d beyond platform's %d sites",
				specs[i].ID, s, w.nSites)
		}
	}
	// One slab holds every job record, each pointing at its spec: a
	// year-scale run makes one allocation here instead of one per job.
	slab := job.NewSlab(specs)
	w.jobs = make([]jobRT, len(specs))
	for i := range slab {
		w.jobs[i] = jobRT{idx: i, j: &slab[i], spec: &specs[i]}
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

// shard is the simulation state the kernel drives: the kernel plus the
// subsystem state for every site. (The name survives from the
// partitioned engines; there is one shard per run.)
type shard struct {
	w *world
	k *kernel

	// nextSubmit is the index of the next spec whose submit event is
	// not yet scheduled: submissions chain one event at a time, in spec
	// order.
	nextSubmit int

	scopeBusy      int
	scopeSuspended int
	scopeWaiting   int
	completed      int

	// The registered subsystems. Each owns the event kinds it
	// allocated from the kernel registry; cross-subsystem scheduling
	// (e.g. placement arming a rescheduling decision) goes through
	// these handles. faults is nil unless cfg.Faults is enabled.
	place  *placementSys
	dyn    *reschedSys
	snaps  *snapshotSys
	faults *faultSys

	view *poolView
	acct *accounting

	res Result
}

// newShard builds the shard and registers the subsystems with its
// kernel.
func newShard(w *world) *shard {
	sh := &shard{w: w, k: newKernel()}
	sh.view = newPoolView(sh)
	sh.acct = newAccounting(sh)
	// The shard core registers its own state codec (clock, event
	// counters, Result counters, the pending event list) ahead of the
	// subsystems', followed by the accounting sink; subsystem codecs
	// then follow kind-registration order. The combined order is fixed,
	// which is what lets snapshots pair saved sections with codecs
	// positionally.
	sh.registerCoreState()
	sh.acct.register(sh.k)
	// Subsystem registration order defines the run's kind numbering
	// (this is the only registration site).
	sh.place = &placementSys{sh: sh}
	sh.dyn = &reschedSys{sh: sh}
	sh.snaps = &snapshotSys{sh: sh}
	systems := []subsystem{sh.place, sh.dyn, sh.snaps}
	if w.cfg.Faults.enabled() {
		sh.faults = &faultSys{sh: sh}
		systems = append(systems, sh.faults)
	}
	for _, sys := range systems {
		sys.register(sh.k)
	}
	return sh
}

// registerCoreState installs the shard-core state codec: the kernel
// clock and counters, the submission-chain cursor, the scope counters,
// the Result counters, and the pending future event list (exact
// scheduling-order stamps included — see saveQueue/restoreQueue).
func (sh *shard) registerCoreState() {
	sh.k.registerState("core", func(e *snapEncoder) {
		k := sh.k
		e.F64(k.now)
		e.I64(k.events)
		e.Int(sh.nextSubmit)
		e.Int(sh.scopeBusy)
		e.Int(sh.scopeSuspended)
		e.Int(sh.scopeWaiting)
		e.Int(sh.completed)
		e.I64(sh.res.Preemptions)
		e.I64(sh.res.Restarts)
		e.I64(sh.res.Migrations)
		e.I64(sh.res.WaitMoves)
		e.I64(sh.res.CrossSiteSubmits)
		e.I64(sh.res.CrossSiteMoves)
		e.I64(sh.res.Kills)
		e.I64(sh.res.Requeues)
		sh.saveQueue(e)
	}, func(d *snapDecoder) error {
		k := sh.k
		k.now = d.F64()
		k.events = d.I64()
		sh.nextSubmit = d.Int()
		sh.scopeBusy = d.Int()
		sh.scopeSuspended = d.Int()
		sh.scopeWaiting = d.Int()
		sh.completed = d.Int()
		sh.res.Preemptions = d.I64()
		sh.res.Restarts = d.I64()
		sh.res.Migrations = d.I64()
		sh.res.WaitMoves = d.I64()
		sh.res.CrossSiteSubmits = d.I64()
		sh.res.CrossSiteMoves = d.I64()
		sh.res.Kills = d.I64()
		sh.res.Requeues = d.I64()
		return sh.restoreQueue(d)
	})
}

// noteAttach flags a job aliased when the machine it acquires sits at
// a site other than its queue-pool label's site (see jobRT.aliased).
// Called from startOn and resume, the two points where a job acquires
// a machine.
func (sh *shard) noteAttach(rt *jobRT, machPool int) {
	if sh.w.siteOf[rt.j.Pool] != sh.w.siteOf[machPool] {
		rt.aliased = true
	}
}

// noteDetach retires a job's alias flag when it leaves its machine
// (completion, suspended departure, or fault kill) and counts the
// retirement for Result.AliasRetirements.
func (sh *shard) noteDetach(rt *jobRT) {
	if !rt.aliased {
		return
	}
	rt.aliased = false
	sh.w.aliasRetired++
}

// rebuildAliased recomputes every job's alias flag from restored job
// and machine state: a job is aliased iff it is attached to a machine
// (running or suspended-on-machine) whose pool's site differs from the
// job's label pool's site. Snapshots do not persist the flags — they
// are a pure function of the state they do persist — so checkpoint
// restore calls this after every codec has loaded.
func rebuildAliased(w *world) {
	for i := range w.jobs {
		rt := &w.jobs[i]
		rt.aliased = false
		st := rt.j.State()
		if st != job.StateRunning && st != job.StateSuspended {
			continue
		}
		rt.aliased = w.siteOf[rt.j.Pool] != w.siteOf[w.machines[rt.j.Machine].m.Pool]
	}
}

// seed schedules the run's initial events: the first submission, and
// the snapshot refresh chains for every (observer, target) site pair
// with a non-zero ageing delay — both at the run's start time,
// submission first. One refresh chain runs per pair; on a single-site
// platform with UtilStaleness > 0 that is exactly one chain,
// reproducing the historical single-snapshot behavior.
func (sh *shard) seed() {
	if len(sh.w.specs) == 0 {
		return
	}
	sh.k.schedule(sh.w.specs[0].Submit, sh.place.submit, 0, 0)
	sh.nextSubmit = 1
	// Fault chains seed last: they start strictly after the trace
	// start (staggered windows, exponential first-crash gaps), so the
	// relative order here only keeps scheduling-order stable.
	defer func() {
		if sh.faults != nil {
			sh.faults.seed()
		}
	}()
	if sh.w.cfg.DisableSampling {
		return
	}
	// Stale utilization views refresh on the sample-tick grid; only
	// those (rare) refresh points need real events.
	for obs := range sh.w.nSites {
		for tgt := range sh.w.nSites {
			if sh.w.ageDelay(obs, tgt) > 0 {
				sh.k.schedule(sh.w.start, sh.snaps.snapshot, int64(obs), int64(tgt))
			}
		}
	}
}

// siteOfPool is a convenience accessor.
func (sh *shard) siteOfPool(pool int) int { return sh.w.siteOf[pool] }

// addBusy applies a busy-core change for a machine of the given pool
// to the platform counter (what the utilization series reads) and the
// machine site's counter (what the per-site series read).
func (sh *shard) addBusy(pool, delta int) {
	sh.scopeBusy += delta
	sh.w.siteBusy[sh.w.siteOf[pool]] += delta
}

// finalizeJobs assembles the job parts of a Result from the world's
// job records: completion check, job list, and makespan.
func finalizeJobs(w *world, res *Result) error {
	res.Jobs = make([]*job.Job, len(w.jobs))
	for i := range w.jobs {
		res.Jobs[i] = w.jobs[i].j
		if w.jobs[i].j.State() != job.StateCompleted {
			return fmt.Errorf("sim: job %d finished run in state %v",
				w.jobs[i].spec.ID, w.jobs[i].j.State())
		}
		if c := w.jobs[i].j.Completed; c > res.Makespan {
			res.Makespan = c
		}
	}
	return nil
}
