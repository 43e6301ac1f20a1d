package sched

import (
	"netbatch/internal/job"
	"netbatch/internal/snap"
)

// SiteView extends PoolView with the federation topology: which site
// each pool lives at and the inter-site delay matrix. Utilization reads
// through a SiteView are aged per observer: a pool at a remote site is
// seen as of (staleness + RTT) minutes ago, which is the §3.2.2
// propagation caveat generalized to a multi-site federation. The
// simulator sets the observer to the deciding job's site before each
// scheduling or rescheduling callback.
type SiteView interface {
	PoolView
	// NumSites returns the number of data-center sites.
	NumSites() int
	// SiteOf returns the site the pool lives at.
	SiteOf(pool int) int
	// SiteUtilization returns the site's core-weighted mean pool
	// utilization in [0, 1], aged like the per-pool reads.
	SiteUtilization(site int) float64
	// RTT returns the one-way inter-site delay from site a to site b in
	// minutes (0 when a == b).
	RTT(a, b int) float64
}

// SiteSelector is the upper level of the two-level federated scheduler:
// it picks the target site for a newly submitted job; round-robin over
// the job's eligible pools at that site then picks the pool within it.
type SiteSelector interface {
	// Name identifies the selector in reports.
	Name() string
	// SelectSite returns the chosen site, which must hold one of
	// eligible, the job's eligible pools (see
	// InitialScheduler.SelectPool).
	SelectSite(spec *job.Spec, eligible []int, view SiteView) int
}

// bestSite returns the site of an eligible pool with the lowest score,
// ties going to the lower site ID, or -1 when eligible is empty. Each
// site below 64 is scored once.
func bestSite(eligible []int, view SiteView, score func(site int) float64) int {
	best, bestScore := -1, 0.0
	var scored uint64
	for _, p := range eligible {
		s := view.SiteOf(p)
		if uint(s) < 64 {
			if scored&(1<<s) != 0 {
				continue
			}
			scored |= 1 << s
		}
		if sc := score(s); best == -1 || sc < bestScore || (sc == bestScore && s < best) {
			best, bestScore = s, sc
		}
	}
	return best
}

// LocalityFirst keeps jobs at their submission site whenever it has an
// eligible pool — data and owner are local, cross-site dispatch delay
// is zero — and falls back to the least-utilized eligible site
// otherwise.
type LocalityFirst struct{}

var _ SiteSelector = LocalityFirst{}

// Name implements SiteSelector.
func (LocalityFirst) Name() string { return "locality" }

// SelectSite implements SiteSelector.
func (LocalityFirst) SelectSite(spec *job.Spec, eligible []int, view SiteView) int {
	for _, p := range eligible {
		if view.SiteOf(p) == spec.Site {
			return spec.Site
		}
	}
	return LeastUtilizedSite{}.SelectSite(spec, eligible, view)
}

// LeastUtilizedSite sends every job to the eligible site with the
// lowest aggregate utilization, ignoring distance — the site-level
// analogue of the paper's utilization-based initial scheduler (§3.2.2).
// Ties break toward the lower site ID for determinism.
type LeastUtilizedSite struct{}

var _ SiteSelector = LeastUtilizedSite{}

// Name implements SiteSelector.
func (LeastUtilizedSite) Name() string { return "least-util" }

// SelectSite implements SiteSelector.
func (LeastUtilizedSite) SelectSite(_ *job.Spec, eligible []int, view SiteView) int {
	return bestSite(eligible, view, view.SiteUtilization)
}

// DefaultLatencyPenalty converts one minute of inter-site delay into
// utilization-fraction units for LatencyPenalizedUtil: 0.005/min means
// a 20-minute-distant site must be 10 utilization points cooler than a
// local one to win.
const DefaultLatencyPenalty = 0.005

// LatencyPenalizedUtil balances load against distance: it picks the
// eligible site minimizing utilization + Penalty·RTT(origin, site).
// The remote utilization it reads is itself aged by that RTT, so the
// selector is honest about both costs of going far.
type LatencyPenalizedUtil struct {
	// Penalty is the utilization-equivalent cost per minute of
	// inter-site delay; 0 means DefaultLatencyPenalty.
	Penalty float64
}

var _ SiteSelector = LatencyPenalizedUtil{}

// Name implements SiteSelector.
func (LatencyPenalizedUtil) Name() string { return "latency-util" }

// SelectSite implements SiteSelector.
func (l LatencyPenalizedUtil) SelectSite(spec *job.Spec, eligible []int, view SiteView) int {
	penalty := l.Penalty
	if penalty == 0 {
		penalty = DefaultLatencyPenalty
	}
	return bestSite(eligible, view, func(s int) float64 {
		return view.SiteUtilization(s) + penalty*view.RTT(spec.Site, s)
	})
}

// Federated is the two-level initial scheduler: a SiteSelector picks
// the target site, then round-robin picks the pool among the job's
// eligible pools at that site. Round-robin keeps one rotation per
// eligible set, and a site-filtered set holds only that site's pools,
// so every site rotates on its own, as under one virtual pool manager
// per site. On a single-site platform (or a plain PoolView) it is plain
// round-robin over all eligible pools, exactly the paper's scheduler.
type Federated struct {
	// Selector is the site-level policy.
	Selector SiteSelector

	rr      RoundRobin
	scratch []int // the site's eligible pools; never retained
}

var _ InitialScheduler = (*Federated)(nil)

// NewFederated puts a site selector in front of round-robin.
func NewFederated(selector SiteSelector) *Federated {
	return &Federated{Selector: selector}
}

// Name implements InitialScheduler.
func (f *Federated) Name() string { return "fed(" + f.Selector.Name() + "+rr)" }

// SelectPool implements InitialScheduler. It returns -1, which the
// simulator rejects, when the selector picks a site holding none of
// eligible.
func (f *Federated) SelectPool(spec *job.Spec, eligible []int, view PoolView) int {
	sv, ok := view.(SiteView)
	if !ok || sv.NumSites() <= 1 {
		return f.rr.SelectPool(spec, eligible, view)
	}
	site := f.Selector.SelectSite(spec, eligible, sv)
	local := f.scratch[:0]
	for _, p := range eligible {
		if sv.SiteOf(p) == site {
			local = append(local, p)
		}
	}
	f.scratch = local
	if len(local) == 0 {
		return -1
	}
	return f.rr.SelectPool(spec, local, view)
}

// SaveState implements sim.Stateful: the round-robin rotations, one per
// candidate set, so a checkpointed simulation resumes with identical
// turns.
func (f *Federated) SaveState(e *snap.Encoder) { f.rr.SaveState(e) }

// LoadState implements sim.Stateful.
func (f *Federated) LoadState(d *snap.Decoder) error { return f.rr.LoadState(d) }
