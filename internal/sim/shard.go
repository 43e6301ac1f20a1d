package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"netbatch/internal/cluster"
	"netbatch/internal/job"
	"netbatch/internal/obs"
	"netbatch/internal/stats"
)

var inf = math.Inf(1)

// world is the immutable run-wide context shared by every shard:
// configuration, platform topology, validated specs, and the backing
// arrays whose elements are owned by exactly one shard at a time
// (machines and pools by site, jobs by current residency).
type world struct {
	cfg   Config
	plat  *cluster.Platform
	specs []job.Spec

	nSites     int
	siteOf     []int // pool -> site
	siteCores  []int
	totalCores int

	// start is the first submission time; it anchors the sample-tick
	// grid and the initial snapshot-chain events for every shard.
	start float64

	// minDyn is the smallest offset at which processing any event can
	// spawn a new deciding event (suspension decisions arrive
	// DecisionDelay later, wait timeouts WaitThreshold later; chained
	// submissions are bounded separately through the static submit
	// list). The optimistic engine's fences rely on it.
	minDyn float64

	// Shared mutable state, element-ownership partitioned by site.
	machines []machineRT
	pools    []*poolRT
	jobs     []jobRT
	siteBusy []int

	// snap is the stale utilization view storage: snap[obs][pool] is
	// observer site obs's aged view of pool. Nil when every
	// (observer, target) ageing delay is zero (all reads live).
	// snap[obs][p] is written only by the shard owning p's site and
	// read only during globally-serialized deciding events.
	snap [][]float64

	// subBySite[s] lists the indices of specs submitted at site s, in
	// submission order (specs are sorted by submission time).
	subBySite [][]int

	// machBySite[s] lists the machine IDs at site s, and faults[s] is
	// the site's fault/maintenance state (RNG stream, downtime spans,
	// window rotation). Both nil unless cfg.Faults is enabled; each
	// element is owned by the site's shard.
	machBySite [][]int
	faults     []siteFaults

	// aliasLive counts jobs currently attached to a machine at a site
	// other than their queue-pool label's site (jobRT.aliased): the
	// products of cross-site alias dispatches — a revived wait-queue
	// slot handing a shard a job whose current queue pool is at another
	// site, or a preemption chaining off one. While such a job exists,
	// its victim-scan visibility, pending events, and onFree cascades
	// belong to a different partition than its machine state, and any
	// capacity-handoff event anywhere may reach across a partition
	// boundary (e.g. a label-matched victim preemption on a remote
	// machine, or a fault kill canceling a finish event that lives in
	// the remote labeling shard's kernel). While aliasLive > 0 every
	// shard's handoff events are promoted to globally-serialized
	// deciding events, which reproduces the serial order exactly. The
	// risk retires with its cause: when the last aliased job detaches
	// from its machine (completion, departure, or kill), handoffs
	// demote back to shard-local — unlike the run-wide sticky flag this
	// replaces, one early alias dispatch no longer serializes the rest
	// of the run. Every mutation happens inside a dispatch that is
	// itself globally serialized (see noteAttach for why an alias can
	// never be created speculatively), so the optimistic engine reads a
	// stable value between commits and never has to roll the counter
	// back.
	aliasLive int

	// aliasRetired counts this run's alias-flag clears for
	// Result.AliasRetirements. Safe as a plain int for the same reason
	// aliasLive is: every mutation happens inside a globally-serialized
	// dispatch.
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
	w.jobs = make([]jobRT, len(specs))
	w.subBySite = make([][]int, w.nSites)
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
		w.jobs[i] = jobRT{idx: i, j: job.New(specs[i]), spec: &specs[i]}
		w.subBySite[specs[i].Site] = append(w.subBySite[specs[i].Site], i)
	}
	if len(specs) > 0 {
		w.start = specs[0].Submit
	}
	w.minDyn = cfg.DecisionDelay
	if th := cfg.Policy.WaitThreshold(); th > 0 && th < w.minDyn {
		w.minDyn = th
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
			// sequences do not depend on site count, engine, or the
			// draws of any other site.
			w.faults[s].rng = root.SplitKey(uint64(s))
			if cfg.Faults.MaintPeriod > 0 {
				// Stagger first windows across sites: offsets of
				// (s+1)/(nSites+1) of a period can never coincide across
				// sites, so windows never produce cross-shard timestamp
				// ties.
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

// parallelizable reports whether the partitioned engine can run this
// configuration: at least two sites, a strictly positive delay on
// every cross-site edge, and a decision delay within the smallest of
// those delays — a pending suspension decision must be
// unable to chase its job across a site boundary (the job is still in
// transit, never suspended remotely, when any stale decision fires),
// which is what keeps every event handler's touch set inside its own
// partition. Anything else falls back to the serial kernel, which is
// trivially identical.
func (w *world) parallelizable() bool {
	minRTT := w.plat.MinCrossRTT()
	return w.nSites > 1 && minRTT > 0 && len(w.specs) > 0 &&
		w.cfg.DecisionDelay <= minRTT
}

// shard is one partition of the simulation: a kernel plus the
// subsystem state for a subset of sites. The serial engine runs a
// single shard scoped to every site; the optimistic engine runs one
// shard per site. A shard only ever touches machines, pools and
// resident jobs of its own sites — cross-site traffic leaves through
// send and arrives through its kernel queue when the sending decision
// commits.
type shard struct {
	w     *world
	k     *kernel
	index int
	sites []int

	// subIdx are the indices of specs submitted inside this shard's
	// scope, in submission order; nextSubmit chains them one event at
	// a time exactly like the monolithic engine did.
	subIdx     []int
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

	// Alias-risk tracking (partitioned shards only; see the waitQueue
	// comment for the revival semantics being preserved). A dispatcher
	// scan of this shard's wait queues touches only shard-resident jobs
	// — and is therefore safe to run concurrently with other shards —
	// unless some job that departed this site still has un-compacted
	// slots in a local FIFO: such a slot can revive while its job
	// waits at a remote site, and scanning (or dispatching!) it reads
	// and writes remote-shard state. aliasRisk counts those jobs; while
	// it is non-zero, the shard's capacity-handoff events (finish,
	// arrival) are promoted to globally-serialized deciding events and
	// fence-published, which reproduces the serial engine's ordering
	// for cross-site alias interactions exactly. All three arrays are
	// read and written only by this shard.
	away        []bool  // job departed this site and has not returned
	slotCount   []int32 // this shard's un-compacted FIFO slots per job
	riskCounted []bool  // job currently counted in aliasRisk
	aliasRisk   int

	// peers maps site -> shard in partitioned runs (nil otherwise); used
	// only under global quiescence, to tell a queue's owning shard that
	// an alias dispatch took its job.
	peers []*shard

	res Result

	// par holds the partitioned-run bookkeeping; nil in serial runs.
	par *parShard

	// opt holds the optimistic-engine bookkeeping (snapshot stack,
	// speculation horizons); nil outside optimistic runs. Its presence
	// also switches the state codecs into light mode: in-memory
	// rollback snapshots skip append-only logs (saving only lengths to
	// truncate to) and scope the placement job loop to resident and
	// in-transit jobs instead of the whole submission history.
	opt *optShard

	// trace is the shard's timeline lane (nil when tracing is off).
	// Written only by the goroutine currently driving the shard, which
	// every engine already guarantees is unique at any instant.
	trace *obs.Track
}

// newShard builds a shard over the given sites and registers the
// subsystems with its kernel.
func newShard(w *world, index int, sites []int, parallel bool) *shard {
	sh := &shard{
		w:     w,
		k:     newKernel(parallel),
		index: index,
		sites: sites,
	}
	if len(sites) == w.nSites {
		sh.subIdx = make([]int, len(w.specs))
		for i := range sh.subIdx {
			sh.subIdx[i] = i
		}
	} else {
		for _, s := range sites {
			sh.subIdx = append(sh.subIdx, w.subBySite[s]...)
		}
		if len(sites) > 1 {
			panic("sim: partitioned shards are single-site")
		}
	}
	sh.view = newPoolView(sh)
	sh.acct = newAccounting(sh, parallel)
	if parallel {
		sh.par = &parShard{outbox: make([][]outMsg, w.nSites)}
	}
	// The shard core registers its own state codec (clock, event
	// counters, Result counters, the pending event list) ahead of the
	// subsystems', followed by the accounting sink; subsystem codecs
	// then follow kind-registration order. The combined order is
	// identical across shards and runs, which is what lets snapshots
	// pair saved sections with codecs positionally.
	sh.registerCoreState()
	sh.acct.register(sh.k)
	// Subsystem registration order defines the run's kind numbering;
	// it must be identical in every shard (and is, because this is the
	// only registration site).
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
	if parallel {
		sh.away = make([]bool, len(w.jobs))
		sh.slotCount = make([]int32, len(w.jobs))
		sh.riskCounted = make([]bool, len(w.jobs))
		for _, p := range w.plat.Site(sites[0]).Pools {
			w.pools[p].waitQ.onDrop = func(rt *jobRT) {
				sh.slotCount[rt.idx]--
				sh.recountRisk(rt.idx)
			}
		}
	}
	return sh
}

// registerCoreState installs the shard-core state codec: the kernel
// clock and counters, the submission-chain cursor, the scope counters,
// the shard's slice of the Result counters, the pending future event
// list (exact tie ranks included — see saveQueue/restoreQueue), and the
// partitioned run's per-shard bookkeeping (departure bitmap, message
// sequence, cross-site busy-shift ledger).
func (sh *shard) registerCoreState() {
	sh.k.registerState("core", func(e *snapEncoder) {
		k := sh.k
		e.F64(k.now)
		e.I64(k.events)
		e.U64(k.phase)
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
		if sh.par != nil {
			e.Bools(sh.away)
			e.U64(sh.par.msgSeq)
			e.Int(len(sh.par.busyShifts))
			for _, bs := range sh.par.busyShifts {
				e.F64(bs.t)
				e.Int(bs.exec)
				e.Int(bs.site)
				e.Int(int(bs.delta))
			}
		}
	}, func(d *snapDecoder) error {
		k := sh.k
		k.now = d.F64()
		k.events = d.I64()
		k.phase = d.U64()
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
		if err := sh.restoreQueue(d); err != nil {
			return err
		}
		if sh.par != nil {
			away := d.BoolsN(len(sh.w.jobs))
			if d.err == nil && len(away) != len(sh.away) {
				d.fail()
				return d.err
			}
			copy(sh.away, away)
			sh.par.msgSeq = d.U64()
			n := d.Int()
			if d.err != nil || n < 0 {
				d.fail()
				return d.err
			}
			sh.par.busyShifts = make([]busyShift, n)
			for i := range sh.par.busyShifts {
				sh.par.busyShifts[i] = busyShift{
					t: d.F64(), exec: d.Int(), site: d.Int(), delta: int32(d.Int()),
				}
			}
		}
		return nil
	})
}

// recountRisk re-evaluates whether job idx contributes to aliasRisk:
// it does while it is away from this site with slots still present in
// a local FIFO.
func (sh *shard) recountRisk(idx int) {
	c := sh.away[idx] && sh.slotCount[idx] > 0
	if c == sh.riskCounted[idx] {
		return
	}
	sh.riskCounted[idx] = c
	if c {
		sh.aliasRisk++
	} else {
		sh.aliasRisk--
	}
}

// noteSlotPush records a new local FIFO slot for job idx.
func (sh *shard) noteSlotPush(idx int) {
	if sh.slotCount == nil {
		return
	}
	sh.slotCount[idx]++
	sh.recountRisk(idx)
}

// noteResident marks job idx as present at this site again (it
// arrived, or a revived local slot just dispatched it here).
func (sh *shard) noteResident(idx int) {
	if sh.away == nil || !sh.away[idx] {
		return
	}
	sh.away[idx] = false
	sh.recountRisk(idx)
}

// noteAway marks job idx as departed to another site.
func (sh *shard) noteAway(idx int) {
	if sh.away == nil || sh.away[idx] {
		return
	}
	sh.away[idx] = true
	sh.recountRisk(idx)
}

// siteShard returns the shard owning site s: the peer in partitioned
// runs, this shard in serial ones.
func (sh *shard) siteShard(s int) *shard {
	if sh.peers == nil {
		return sh
	}
	return sh.peers[s]
}

// moveResidency records job idx leaving site from for site to in both
// sites' departure bitmaps. The executing shard need not be either of
// them: a serialized alias cascade may run one shard's handler against
// another site's machine, and the bitmaps must follow the job, not the
// handler — they decide which jobs a shard's alias risk counts and its
// rollback snapshots cover.
func (sh *shard) moveResidency(idx, from, to int) {
	if from != to {
		sh.siteShard(from).noteAway(idx)
	}
	sh.siteShard(to).noteResident(idx)
}

// departed returns the jobs that left this shard for another, which
// then owns their state — or nil in serial runs and while an aliased
// job is machine-attached anywhere. With no alias live, a departed job
// is neither running on this shard's machines nor labeled with one of
// its pools, so findVictim may prune its stale running-stack entries
// without reading it: a concurrent burst of the owning shard may be
// writing that job's state. (With an alias live every job-touching
// event is serialized, and findVictim reads job state as usual.)
func (sh *shard) departed() []bool {
	if sh.w.aliasLive > 0 {
		return nil
	}
	return sh.away
}

// aliasRetirements counts alias-flag clears (noteDetach on an aliased
// job) across every run in the process. Tests assert the retirement
// path genuinely engages — that handoffs demote back to local after
// the last aliased job detaches — through deltas of this counter.
var aliasRetirements atomic.Int64

// noteAttach records a job's machine attachment for the alias-risk
// ledger: the job is aliased iff the machine's site differs from the
// job's queue-pool label's site — or, in a partitioned run, from the
// site of the shard attaching it, whose kernel then holds the job's
// finish event. Called from startOn and resume, the two points where a
// job acquires a machine. A serialized alias cascade (a departure, a
// preemption or a handoff executed against another site's machine) can
// start or resume a label-local job there from a peer's kernel; until
// that job detaches, its pending finish lives in the wrong shard, so
// handoffs must stay serialized exactly as for a label alias.
//
// An alias can never be created speculatively: a revived slot handing
// out a departed job requires the slot shard's own aliasRisk > 0, a
// preemption reaching a remote machine requires an already-aliased
// victim (findVictim matches on the label pool, so a cross-site match
// implies the victim's label and machine sites differ), and a shard
// reaches another site's machine only inside such a cascade — all of
// which run as globally-serialized deciding events. Speculative bursts
// therefore only ever attach label-local jobs on their own machines,
// and rollback never needs to undo the ledger.
func (sh *shard) noteAttach(rt *jobRT, machPool int) {
	if rt.aliased {
		// Already aliased and re-attaching (kill-and-requeue lands on
		// the machine pool, clearing first): unreachable today, but keep
		// the counter exact if a future path re-attaches without detach.
		return
	}
	machSite := sh.w.siteOf[machPool]
	if sh.w.siteOf[rt.j.Pool] != machSite || sh.peers != nil && sh.index != machSite {
		rt.aliased = true
		sh.w.aliasLive++
	}
}

// noteDetach retires a job's alias flag when it leaves its machine
// (completion, suspended departure, or fault kill). Once the last live
// flag clears, every running or suspended job's label site matches its
// machine site again, so no victim scan, pending event, or onFree
// cascade can cross a partition boundary — capacity handoffs demote
// back to shard-local dispatch until the next alias dispatch.
func (sh *shard) noteDetach(rt *jobRT) {
	if !rt.aliased {
		return
	}
	rt.aliased = false
	sh.w.aliasLive--
	sh.w.aliasRetired++
	aliasRetirements.Add(1)
}

// rebuildAliasLive recomputes the alias-risk ledger from restored job
// and machine state: a job is aliased iff it is attached to a machine
// (running or suspended-on-machine) whose pool's site differs from the
// job's label pool's site. Snapshots do not persist the ledger — it is
// a pure function of the state they do persist — so checkpoint restore
// calls this after every shard codec has loaded.
func rebuildAliasLive(w *world) {
	w.aliasLive = 0
	for i := range w.jobs {
		rt := &w.jobs[i]
		rt.aliased = false
		st := rt.j.State()
		if st != job.StateRunning && st != job.StateSuspended {
			continue
		}
		if w.siteOf[rt.j.Pool] != w.siteOf[w.machines[rt.j.Machine].m.Pool] {
			rt.aliased = true
			w.aliasLive++
		}
	}
}

// seed schedules the shard's initial events: its first local
// submission, and the snapshot refresh chains for every (observer,
// target-site-in-scope) pair with a non-zero ageing delay — both at
// the run's global start time, submission first, matching the
// monolithic engine's initialization order. One refresh chain runs per
// pair; on a single-site platform with UtilStaleness > 0 that is
// exactly one chain, reproducing the historical single-snapshot
// behavior.
func (sh *shard) seed() {
	if len(sh.w.specs) == 0 {
		return
	}
	if len(sh.subIdx) > 0 {
		first := sh.subIdx[0]
		sh.k.schedule(sh.w.specs[first].Submit, sh.place.submit, int64(first), 0)
		sh.nextSubmit = 1
	}
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
	// those (rare) refresh points need real events. The chain for pair
	// (obs, tgt) is owned by tgt's shard: the refresh reads tgt's live
	// pool state.
	for obs := 0; obs < sh.w.nSites; obs++ {
		for _, tgt := range sh.sites {
			if sh.w.ageDelay(obs, tgt) > 0 {
				sh.k.schedule(sh.w.start, sh.snaps.snapshot, int64(obs), int64(tgt))
			}
		}
	}
}

// nextChainSubmit returns the submission time of the shard's earliest
// not-yet-scheduled submit event, or +inf. Together with the decide
// shadow queue it lower-bounds every deciding event this shard can
// ever schedule, which is what the optimistic engine's fences publish.
func (sh *shard) nextChainSubmit() float64 {
	if sh.nextSubmit < len(sh.subIdx) {
		return sh.w.specs[sh.subIdx[sh.nextSubmit]].Submit
	}
	return inf
}

// decideFence returns the timestamp below which this shard is
// guaranteed not to hold (or later create, while idle) any pending
// deciding event.
func (sh *shard) decideFence() float64 {
	f := sh.k.nextDecide()
	if t := sh.nextChainSubmit(); t < f {
		f = t
	}
	return f
}

// publishedFence is what the shard advertises to its peers: the
// earliest timestamp at which it may execute an event that reads or
// writes another shard's state. Three sources bound it: pending (and
// future chained-submission) deciding events; while alias risk is
// live — locally, or anywhere via a machine-attached aliased job —
// pending capacity handoffs (they are then serialized too); and — crucially —
// decisions that do not exist yet: processing any pending event at
// time u can arm a suspension decision or wait timeout no earlier
// than u + minDyn, so the fence can never exceed the next event's
// time plus that offset.
func (sh *shard) publishedFence() float64 {
	f := sh.decideFence()
	if sh.aliasRisk > 0 || sh.w.aliasLive > 0 {
		if t := sh.k.nextHandoff(); t < f {
			f = t
		}
	}
	if t, ok := sh.k.q.NextTime(); ok && t+sh.w.minDyn < f {
		f = t + sh.w.minDyn
	}
	return f
}

// send schedules an event for the shard of site dest: locally when the
// destination is this shard (always, in the serial engine), otherwise
// into the destination's outbox buffer, delivered when the sending
// decision commits. Every send originates in a globally-serialized
// deciding dispatch (submission routing, reschedule routing), and every
// cross-site event carries at least the inter-site RTT of delay.
func (sh *shard) send(dest int, t float64, kd kind, a, b int64) {
	if sh.par == nil || dest == sh.index {
		sh.k.schedule(t, kd, a, b)
		return
	}
	sh.par.msgSeq++
	sh.par.outbox[dest] = append(sh.par.outbox[dest], outMsg{
		t: t, kind: kd, a: a, b: b,
		g: sh.k.phase, idx: sh.par.msgSeq,
	})
	sh.par.outboxN++
}

// siteOfPool is a convenience accessor.
func (sh *shard) siteOfPool(pool int) int { return sh.w.siteOf[pool] }

// addBusy applies a busy-core change for a machine of the given pool:
// the executing shard's scope counter (what its raw sample log reads)
// and the machine site's counter (what the serial site series read).
// When a globally-serialized event mutates a machine at another site —
// possible only after a cross-site alias dispatch — the shift is also
// logged so the partitioned merge can re-attribute the executing shard's
// samples to the machine's site, keeping per-site series bit-identical
// to the serial engine's.
func (sh *shard) addBusy(pool, delta int) {
	site := sh.w.siteOf[pool]
	sh.scopeBusy += delta
	sh.w.siteBusy[site] += delta
	if sh.par != nil && site != sh.sites[0] {
		sh.par.busyShifts = append(sh.par.busyShifts, busyShift{
			t: sh.k.now, exec: sh.sites[0], site: site, delta: int32(delta),
		})
	}
}

// finalize assembles the common parts of a Result from the world's job
// records: completion check, job list, and makespan. Counter and
// series assembly differ per engine and stay with the callers.
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
