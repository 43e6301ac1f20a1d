package sched

import (
	"fmt"

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
// that site's eligible candidates then picks the pool within it.
// Implementations must only return sites holding at least one eligible
// candidate pool.
type SiteSelector interface {
	// Name identifies the selector in reports.
	Name() string
	// SelectSite returns the chosen site, or an error when no site has
	// an eligible candidate pool.
	SelectSite(now float64, spec *job.Spec, view SiteView) (int, error)
}

// siteEligible reports whether site holds at least one statically
// eligible candidate pool for spec.
func siteEligible(view SiteView, site int, spec *job.Spec) bool {
	for _, p := range spec.Candidates {
		if view.SiteOf(p) == site && view.Eligible(p, spec) {
			return true
		}
	}
	return false
}

// eachEligibleSite calls fn for every site with at least one eligible
// candidate pool, in ascending site order.
func eachEligibleSite(view SiteView, spec *job.Spec, fn func(site int)) {
	// Realistic federations have a handful of sites; keep the dedup
	// mask on the stack for those and preserve the ascending-site
	// visit order either way (selectors tie-break on iteration order).
	var seenBuf [64]bool
	var seen []bool
	if n := view.NumSites(); n <= len(seenBuf) {
		seen = seenBuf[:n]
	} else {
		seen = make([]bool, n)
	}
	for _, p := range spec.Candidates {
		if !seen[view.SiteOf(p)] && view.Eligible(p, spec) {
			seen[view.SiteOf(p)] = true
		}
	}
	for s, ok := range seen {
		if ok {
			fn(s)
		}
	}
}

// errNoEligibleSite builds the common selector error.
func errNoEligibleSite(spec *job.Spec) error {
	return fmt.Errorf("sched: job %d has no site with an eligible candidate pool %v",
		spec.ID, spec.Candidates)
}

// LocalityFirst keeps jobs at their submission site whenever it has an
// eligible candidate pool — data and owner are local, cross-site
// dispatch delay is zero — and falls back to the least-utilized
// eligible site otherwise.
type LocalityFirst struct{}

var _ SiteSelector = LocalityFirst{}

// Name implements SiteSelector.
func (LocalityFirst) Name() string { return "locality" }

// SelectSite implements SiteSelector.
func (LocalityFirst) SelectSite(_ float64, spec *job.Spec, view SiteView) (int, error) {
	if spec.Site < view.NumSites() && siteEligible(view, spec.Site, spec) {
		return spec.Site, nil
	}
	return leastUtilizedSite(spec, view)
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
func (LeastUtilizedSite) SelectSite(_ float64, spec *job.Spec, view SiteView) (int, error) {
	return leastUtilizedSite(spec, view)
}

func leastUtilizedSite(spec *job.Spec, view SiteView) (int, error) {
	best, bestUtil := -1, 0.0
	eachEligibleSite(view, spec, func(s int) {
		u := view.SiteUtilization(s)
		if best == -1 || u < bestUtil {
			best, bestUtil = s, u
		}
	})
	if best == -1 {
		return 0, errNoEligibleSite(spec)
	}
	return best, nil
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
func (l LatencyPenalizedUtil) SelectSite(_ float64, spec *job.Spec, view SiteView) (int, error) {
	penalty := l.Penalty
	if penalty == 0 {
		penalty = DefaultLatencyPenalty
	}
	origin := spec.Site
	best, bestScore := -1, 0.0
	eachEligibleSite(view, spec, func(s int) {
		score := view.SiteUtilization(s) + penalty*view.RTT(origin, s)
		if best == -1 || score < bestScore {
			best, bestScore = s, score
		}
	})
	if best == -1 {
		return 0, errNoEligibleSite(spec)
	}
	return best, nil
}

// Federated is the two-level initial scheduler: a SiteSelector picks
// the target site, then round-robin picks the pool among the job's
// eligible candidates at that site. Round-robin keeps one rotation per
// candidate set, and a site-filtered set holds only that site's pools,
// so every site rotates on its own, as under one virtual pool manager
// per site. On a single-site platform (or a plain PoolView) it is plain
// round-robin over all candidates, exactly the paper's scheduler.
type Federated struct {
	// Selector is the site-level policy.
	Selector SiteSelector

	rr      RoundRobin
	scratch []int // the site's eligible candidates; never retained
}

var _ InitialScheduler = (*Federated)(nil)

// NewFederated puts a site selector in front of round-robin.
func NewFederated(selector SiteSelector) *Federated {
	return &Federated{Selector: selector}
}

// Name implements InitialScheduler.
func (f *Federated) Name() string { return "fed(" + f.Selector.Name() + "+rr)" }

// SelectPool implements InitialScheduler.
func (f *Federated) SelectPool(now float64, spec *job.Spec, view PoolView) (int, error) {
	sv, ok := view.(SiteView)
	if !ok || sv.NumSites() <= 1 {
		return f.rr.SelectPool(now, spec, view)
	}
	site, err := f.Selector.SelectSite(now, spec, sv)
	if err != nil {
		return 0, err
	}
	eligible := f.scratch[:0]
	for _, p := range spec.Candidates {
		if sv.SiteOf(p) == site && sv.Eligible(p, spec) {
			eligible = append(eligible, p)
		}
	}
	f.scratch = eligible
	if len(eligible) == 0 {
		return 0, fmt.Errorf("sched: selector %s picked site %d with no eligible candidate pool for job %d",
			f.Selector.Name(), site, spec.ID)
	}
	return f.rr.pick(eligible, view), nil
}

// SaveState implements sim.Stateful: the round-robin rotations, one per
// candidate set, so a checkpointed simulation resumes with identical
// turns.
func (f *Federated) SaveState(e *snap.Encoder) { f.rr.SaveState(e) }

// LoadState implements sim.Stateful.
func (f *Federated) LoadState(d *snap.Decoder) error { return f.rr.LoadState(d) }
