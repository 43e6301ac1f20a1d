package sim

import (
	"netbatch/internal/sched"
	"netbatch/internal/snap"
)

// This file is the stale utilization view (§3.2.2, generalized to
// site pairs): the refresh chains that age the view every
// UtilStaleness + RTT(observer, target) minutes. A refresh of pair
// (obs, tgt) reads tgt's live pool counters and publishes them into the
// snapshot row that obs's scheduler and policy callbacks read.

// saveViews dumps every observer's snapshot cells, site by site. The
// refresh chains themselves are pending events, saved with the queue.
func (w *world) saveViews(e *snap.Encoder) {
	if w.snap == nil {
		return // no ageing configured; nothing allocated (config-determined)
	}
	for obs := 0; obs < w.nSites; obs++ {
		for site := range w.nSites {
			for _, p := range w.plat.Site(site).Pools {
				e.F64(w.snap[obs][p])
			}
		}
	}
}

func (w *world) loadViews(d *snap.Decoder) error {
	if w.snap == nil {
		return nil
	}
	for obs := 0; obs < w.nSites; obs++ {
		for site := range w.nSites {
			for _, p := range w.plat.Site(site).Pools {
				w.snap[obs][p] = d.F64()
			}
		}
	}
	return d.Err()
}

// handleSnapshot refreshes observer site obs's view of target site
// tgt's pools and schedules the pair's next refresh on the
// sample-tick grid: the first tick at least the pair's ageing delay
// after this one, reproducing the refresh times the per-minute sampler
// produced by checking staleness at every tick. (Because the event is
// enqueued a full period ahead rather than one tick ahead, a refresh
// coinciding exactly with another event's timestamp may order
// differently than the old sampler did — the same measure-zero tie
// caveat as the incremental sampler.)
func (w *world) handleSnapshot(obs, tgt int) {
	w.view.refresh(obs, tgt)
	// The chain dies with the run.
	if w.completed >= len(w.specs) {
		return
	}
	d := w.ageDelay(obs, tgt)
	next := w.now
	for next-w.now < d {
		next += w.cfg.SampleEvery
	}
	w.schedule(next, kSnapshot, int64(obs), int64(tgt))
}

// poolView implements sched.SiteView over the world's state. Utilization
// reads are aged per (observer site, target site) pair: observer obs
// sees a pool at site t as of the last refresh of the (obs, t) chain,
// which runs every UtilStaleness + RTT(obs, t) minutes. With a zero
// delay (same site, no staleness) reads are live. The engine points
// the observer at the deciding job's site before every scheduler and
// policy callback.
type poolView struct {
	w *world
	// obs is the current observer site.
	obs int
}

var _ sched.SiteView = (*poolView)(nil)

// observe points the view at the given observer site.
func (v *poolView) observe(site int) { v.obs = site }

// refresh copies live utilization of the target site's pools into the
// observer's snapshot row.
func (v *poolView) refresh(obs, tgt int) {
	cells := v.w.snap
	if cells == nil {
		return
	}
	for _, p := range v.w.plat.Site(tgt).Pools {
		cells[obs][p] = v.liveUtil(p)
	}
}

func (v *poolView) liveUtil(p int) float64 {
	pool := v.w.pools[p]
	if pool.pool.Cores == 0 {
		return 0
	}
	return float64(pool.busyCores) / float64(pool.pool.Cores)
}

// Utilization implements sched.PoolView.
func (v *poolView) Utilization(p int) float64 {
	if v.w.snap != nil && v.w.ageDelay(v.obs, v.w.siteOf[p]) > 0 {
		return v.w.snap[v.obs][p]
	}
	return v.liveUtil(p)
}

// QueueLen implements sched.PoolView.
func (v *poolView) QueueLen(p int) int { return v.w.pools[p].waitQ.Len() }

// PoolCores implements sched.PoolView.
func (v *poolView) PoolCores(p int) int { return v.w.pools[p].pool.Cores }

// NumSites implements sched.SiteView.
func (v *poolView) NumSites() int { return v.w.nSites }

// SiteOf implements sched.SiteView.
func (v *poolView) SiteOf(pool int) int { return v.w.siteOf[pool] }

// SiteUtilization implements sched.SiteView: the core-weighted mean of
// the (aged) per-pool utilizations of the site. Every pool of the site
// shares the observer's ageing delay, so aged-or-live is decided once.
func (v *poolView) SiteUtilization(site int) float64 {
	cores := v.w.siteCores[site]
	if cores == 0 {
		return 0
	}
	aged := v.w.snap != nil && v.w.ageDelay(v.obs, site) > 0
	var busy float64
	for _, p := range v.w.plat.Site(site).Pools {
		var u float64
		if aged {
			u = v.w.snap[v.obs][p]
		} else {
			u = v.liveUtil(p)
		}
		busy += u * float64(v.w.pools[p].pool.Cores)
	}
	return busy / float64(cores)
}

// RTT implements sched.SiteView.
func (v *poolView) RTT(a, b int) float64 { return v.w.plat.RTT(a, b) }
