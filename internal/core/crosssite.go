package core

import (
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// ResSusWaitLatency is the federation-aware combined rescheduling
// strategy: like ResSusWaitUtil it reschedules both suspended and
// long-waiting jobs toward cooler candidate pools, but when the view
// carries site topology (sched.SiteView) it scores each alternate by
//
//	aged utilization + LatencyPenalty × RTT(current site, pool's site)
//
// so a cross-site move must promise enough load relief to amortize the
// migration latency the simulator will charge for it. Without site
// information it degrades exactly to ResSusWaitUtil. This implements
// the cross-site rescheduling of long-waiting jobs with an explicit
// migration latency cost that the single-site paper leaves as future
// work (§5, "network delays and other rescheduling associated
// overheads").
type ResSusWaitLatency struct {
	// Threshold is the queue-stall threshold in minutes.
	Threshold float64
	// LatencyPenalty is the utilization-equivalent cost per minute of
	// inter-site delay; 0 means sched.DefaultLatencyPenalty.
	LatencyPenalty float64
}

var _ Policy = ResSusWaitLatency{}

// NewResSusWaitLatency returns the latency-aware combined policy with
// the paper's 30-minute threshold and the default latency penalty.
func NewResSusWaitLatency() ResSusWaitLatency {
	return ResSusWaitLatency{Threshold: DefaultWaitThreshold, LatencyPenalty: sched.DefaultLatencyPenalty}
}

// Name implements Policy.
func (ResSusWaitLatency) Name() string { return "ResSusWaitLatency" }

// OnSuspend implements Policy.
func (p ResSusWaitLatency) OnSuspend(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	return p.latencyAlternate(j, eligible, view)
}

// WaitThreshold implements Policy.
func (p ResSusWaitLatency) WaitThreshold() float64 { return p.Threshold }

// OnWaitTimeout implements Policy.
func (p ResSusWaitLatency) OnWaitTimeout(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	return p.latencyAlternate(j, eligible, view)
}

// latencyAlternate returns the eligible alternate pool with the lowest
// latency-penalized utilization score. ok is false when no alternate
// scores strictly below the current pool's (unpenalized) utilization —
// the retain rule of §3.2.1 with distance folded in.
func (p ResSusWaitLatency) latencyAlternate(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	sv, ok := view.(sched.SiteView)
	if !ok || sv.NumSites() <= 1 {
		return lowestUtilAlternate(j, eligible, view)
	}
	penalty := p.LatencyPenalty
	if penalty == 0 {
		penalty = sched.DefaultLatencyPenalty
	}
	from := sv.SiteOf(j.Pool)
	best, bestScore := -1, 0.0
	for _, c := range eligible {
		if c == j.Pool {
			continue
		}
		score := view.Utilization(c) + penalty*sv.RTT(from, sv.SiteOf(c))
		if best == -1 || score < bestScore {
			best, bestScore = c, score
		}
	}
	if best == -1 {
		return 0, false
	}
	if j.Pool >= 0 && bestScore >= view.Utilization(j.Pool) {
		return 0, false
	}
	return best, true
}
