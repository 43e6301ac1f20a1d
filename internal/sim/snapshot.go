package sim

import (
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// snapshotSys is the stale-view subsystem (§3.2.2, generalized to site
// pairs): it owns the snapshot refresh chains that age the utilization
// view every UtilStaleness + RTT(observer, target) minutes. A refresh
// of pair (obs, tgt) reads tgt's live pool counters and publishes them
// into the snapshot row that obs's scheduler and policy callbacks read.
type snapshotSys struct {
	sh *shard

	// snapshot is the allocated refresh kind.
	snapshot kind
}

func (s *snapshotSys) register(k *kernel) {
	sh := s.sh
	// snapshot carries (observer, target) in (a, b).
	s.snapshot = k.registerKind("snapshot", func(a, b int64) error {
		sh.handleSnapshot(snapPair{obs: int(a), tgt: int(b)})
		return nil
	})
	k.registerState("views", s.save, s.load)
}

// save dumps the stale-view subsystem's state: every observer's
// snapshot cells, site by site. The refresh chains themselves are
// pending events, saved with the kernel queue.
func (s *snapshotSys) save(e *snapEncoder) {
	sh := s.sh
	if sh.w.snap == nil {
		return // no ageing configured; nothing allocated (config-determined)
	}
	for obs := 0; obs < sh.w.nSites; obs++ {
		for site := range sh.w.nSites {
			for _, p := range sh.w.plat.Site(site).Pools {
				e.F64(sh.w.snap[obs][p])
			}
		}
	}
}

func (s *snapshotSys) load(d *snapDecoder) error {
	sh := s.sh
	if sh.w.snap == nil {
		return nil
	}
	for obs := 0; obs < sh.w.nSites; obs++ {
		for site := range sh.w.nSites {
			for _, p := range sh.w.plat.Site(site).Pools {
				sh.w.snap[obs][p] = d.F64()
			}
		}
	}
	return d.err
}

// snapPair names one (observer site, target site) utilization-view
// refresh chain: observer obs's view of tgt's pools refreshes every
// UtilStaleness + RTT(obs, tgt) minutes on the sample-tick grid.
type snapPair struct {
	obs, tgt int
}

// handleSnapshot refreshes one (observer, target) slice of the stale
// utilization view and schedules the pair's next refresh on the
// sample-tick grid: the first tick at least the pair's ageing delay
// after this one, reproducing the refresh times the per-minute sampler
// produced by checking staleness at every tick. (Because the event is
// enqueued a full period ahead rather than one tick ahead, a refresh
// coinciding exactly with another event's timestamp may order
// differently than the old sampler did — the same measure-zero tie
// caveat as the incremental sampler.)
func (sh *shard) handleSnapshot(pair snapPair) {
	sh.view.refresh(pair)
	// The chain dies with the run.
	if sh.completed >= len(sh.w.specs) {
		return
	}
	d := sh.w.ageDelay(pair.obs, pair.tgt)
	next := sh.k.now
	for next-sh.k.now < d {
		next += sh.w.cfg.SampleEvery
	}
	sh.k.schedule(next, sh.snaps.snapshot, int64(pair.obs), int64(pair.tgt))
}

// poolView implements sched.SiteView over shard state. Utilization
// reads are aged per (observer site, target site) pair: observer obs
// sees a pool at site t as of the last refresh of the (obs, t) chain,
// which runs every UtilStaleness + RTT(obs, t) minutes. With a zero
// delay (same site, no staleness) reads are live. The engine points
// the observer at the deciding job's site before every scheduler and
// policy callback. Each shard holds its own view (private observer
// field) over the shared platform state and snapshot storage.
type poolView struct {
	sh *shard
	// obs is the current observer site.
	obs int
}

var (
	_ sched.PoolView = (*poolView)(nil)
	_ sched.SiteView = (*poolView)(nil)
)

func newPoolView(sh *shard) *poolView {
	return &poolView{sh: sh}
}

// observe points the view at the given observer site.
func (v *poolView) observe(site int) { v.obs = site }

// refresh copies live utilization of the target site's pools into the
// observer's snapshot row.
func (v *poolView) refresh(pair snapPair) {
	snap := v.sh.w.snap
	if snap == nil {
		return
	}
	for _, p := range v.sh.w.plat.Site(pair.tgt).Pools {
		snap[pair.obs][p] = v.liveUtil(p)
	}
}

func (v *poolView) liveUtil(p int) float64 {
	pool := v.sh.w.pools[p]
	if pool.pool.Cores == 0 {
		return 0
	}
	return float64(pool.busyCores) / float64(pool.pool.Cores)
}

// NumPools implements sched.PoolView.
func (v *poolView) NumPools() int { return len(v.sh.w.pools) }

// Utilization implements sched.PoolView.
func (v *poolView) Utilization(p int) float64 {
	if v.sh.w.snap != nil && v.sh.w.ageDelay(v.obs, v.sh.w.siteOf[p]) > 0 {
		return v.sh.w.snap[v.obs][p]
	}
	return v.liveUtil(p)
}

// QueueLen implements sched.PoolView.
func (v *poolView) QueueLen(p int) int { return v.sh.w.pools[p].waitQ.Len() }

// PoolCores implements sched.PoolView.
func (v *poolView) PoolCores(p int) int { return v.sh.w.pools[p].pool.Cores }

// Eligible implements sched.PoolView.
func (v *poolView) Eligible(p int, spec *job.Spec) bool {
	return v.sh.w.pools[p].eligible(spec)
}

// NumSites implements sched.SiteView.
func (v *poolView) NumSites() int { return v.sh.w.nSites }

// SiteOf implements sched.SiteView.
func (v *poolView) SiteOf(pool int) int { return v.sh.w.siteOf[pool] }

// SitePools implements sched.SiteView.
func (v *poolView) SitePools(site int) []int { return v.sh.w.plat.Site(site).Pools }

// SiteUtilization implements sched.SiteView: the core-weighted mean of
// the (aged) per-pool utilizations of the site.
func (v *poolView) SiteUtilization(site int) float64 {
	cores := v.sh.w.siteCores[site]
	if cores == 0 {
		return 0
	}
	var busy float64
	for _, p := range v.sh.w.plat.Site(site).Pools {
		busy += v.Utilization(p) * float64(v.sh.w.pools[p].pool.Cores)
	}
	return busy / float64(cores)
}

// RTT implements sched.SiteView.
func (v *poolView) RTT(a, b int) float64 { return v.sh.w.plat.RTT(a, b) }
