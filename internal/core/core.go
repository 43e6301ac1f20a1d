// Package core implements the paper's primary contribution: dynamic
// rescheduling strategies that restart suspended jobs — and optionally
// jobs stalled in wait queues — at alternate physical pools (§3).
//
// Five strategies are evaluated in the paper:
//
//	NoRes           — the NetBatch baseline; never reschedules.
//	ResSusUtil      — on suspension, restart at the candidate pool with
//	                  the lowest utilization; stay if the current pool
//	                  is already the least utilized (§3.2).
//	ResSusRand      — on suspension, restart at a random candidate pool
//	                  (§3.2).
//	ResSusWaitUtil  — ResSusUtil plus: a job waiting longer than the
//	                  threshold moves to the lowest-utilization pool
//	                  (§3.3).
//	ResSusWaitRand  — random variant of the combined strategy; the paper
//	                  highlights that it needs no pool statistics at all
//	                  and can be driven by the job itself (§3.3.2).
//
// Two extension policies implement alternatives the paper discusses
// qualitatively: ResSusMigrate (Condor-style checkpoint migration that
// preserves progress at a transfer cost, §2.3/§4) and
// ResSusWaitLatency (ResSusWaitUtil with an inter-site delay penalty,
// for the multi-site federation; §5's "network delays and other
// rescheduling associated overheads").
//
// Every decision chooses among the job's eligible pools, which the
// simulator works out and passes in: the candidates that hold a machine
// meeting the job's static requirements, in candidate order.
package core

import (
	"netbatch/internal/job"
	"netbatch/internal/sched"
	"netbatch/internal/snap"
	"netbatch/internal/stats"
)

// DefaultWaitThreshold is the paper's waiting-time threshold: "30
// minutes, which is about twice the expected average waiting time in
// the original system" (§3.3).
const DefaultWaitThreshold = 30.0

// Policy decides when and where to reschedule jobs. Implementations
// must be deterministic given their construction-time seed.
type Policy interface {
	// Name identifies the policy in reports, matching the paper's
	// strategy names.
	Name() string
	// OnSuspend is consulted when a job has just been suspended.
	// Returning (pool, true) restarts the job from scratch at pool, one
	// of eligible; returning (_, false) leaves it suspended on its host.
	OnSuspend(j *job.Job, eligible []int, view sched.PoolView) (int, bool)
	// WaitThreshold returns the queue-stall threshold in minutes after
	// which OnWaitTimeout is consulted, or 0 if waiting jobs are never
	// rescheduled.
	WaitThreshold() float64
	// OnWaitTimeout is consulted when a job has waited longer than the
	// threshold in one pool's queue. Returning (pool, true) moves it to
	// pool's queue, pool one of eligible; returning (_, false) leaves it
	// (the timer re-arms).
	OnWaitTimeout(j *job.Job, eligible []int, view sched.PoolView) (int, bool)
}

// Migrator is implemented by policies whose suspended-job moves carry
// execution progress to the alternate pool (checkpoint migration, as in
// Condor) instead of restarting from scratch. MigrationOverhead is the
// extra transfer delay in minutes charged per move.
type Migrator interface {
	MigrationOverhead() float64
}

// NoRes is the baseline: jobs stay where NetBatch put them.
type NoRes struct{}

var _ Policy = NoRes{}

// NewNoRes returns the no-rescheduling baseline.
func NewNoRes() NoRes { return NoRes{} }

// Name implements Policy.
func (NoRes) Name() string { return "NoRes" }

// OnSuspend implements Policy: never move.
func (NoRes) OnSuspend(*job.Job, []int, sched.PoolView) (int, bool) { return 0, false }

// WaitThreshold implements Policy: waiting jobs are never rescheduled.
func (NoRes) WaitThreshold() float64 { return 0 }

// OnWaitTimeout implements Policy.
func (NoRes) OnWaitTimeout(*job.Job, []int, sched.PoolView) (int, bool) { return 0, false }

// lowestUtilAlternate returns the eligible pool with the lowest
// utilization, excluding the job's current pool. ok is false when
// there is no alternate or every alternate is at least as utilized as
// the current pool ("ResSusUtil will simply retain the suspended job in
// its current pool", §3.2.1).
func lowestUtilAlternate(j *job.Job, eligible []int, view sched.PoolView) (pool int, ok bool) {
	best, bestUtil := -1, 0.0
	for _, p := range eligible {
		if p == j.Pool {
			continue
		}
		u := view.Utilization(p)
		if best == -1 || u < bestUtil {
			best, bestUtil = p, u
		}
	}
	if best == -1 {
		return 0, false
	}
	if j.Pool >= 0 && bestUtil >= view.Utilization(j.Pool) {
		return 0, false
	}
	return best, true
}

// randomCandidate returns a uniformly random eligible pool — "a
// randomly selected pool among all candidate pools" (§3.2), which
// deliberately does NOT exclude the current pool or consider load;
// blind selection is exactly what the paper shows can backfire. ok is
// false when eligible is empty. A pick equal to the current pool still
// counts as a move for suspended jobs (the job restarts into its own
// pool's queue); the simulator treats it as a stay for waiting jobs
// (nothing would change).
func randomCandidate(rng *stats.RNG, eligible []int) (pool int, ok bool) {
	if len(eligible) == 0 {
		return 0, false
	}
	return eligible[rng.IntN(len(eligible))], true
}

// ResSusUtil restarts suspended jobs at the least-utilized candidate
// pool.
type ResSusUtil struct{}

var _ Policy = ResSusUtil{}

// NewResSusUtil returns the utilization-guided suspended-job policy.
func NewResSusUtil() ResSusUtil { return ResSusUtil{} }

// Name implements Policy.
func (ResSusUtil) Name() string { return "ResSusUtil" }

// OnSuspend implements Policy.
func (ResSusUtil) OnSuspend(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	return lowestUtilAlternate(j, eligible, view)
}

// WaitThreshold implements Policy.
func (ResSusUtil) WaitThreshold() float64 { return 0 }

// OnWaitTimeout implements Policy.
func (ResSusUtil) OnWaitTimeout(*job.Job, []int, sched.PoolView) (int, bool) {
	return 0, false
}

// ResSusRand restarts suspended jobs at a random alternate candidate
// pool, regardless of load — the paper's cautionary tale: "dynamic
// rescheduling may backfire if the alternate pool is randomly selected"
// (§3.2.1).
type ResSusRand struct {
	rng *stats.RNG
}

var _ Policy = (*ResSusRand)(nil)

// NewResSusRand returns the random suspended-job policy with its own
// deterministic stream.
func NewResSusRand(seed uint64) *ResSusRand {
	return &ResSusRand{rng: stats.NewRNG(seed)}
}

// Name implements Policy.
func (*ResSusRand) Name() string { return "ResSusRand" }

// OnSuspend implements Policy.
func (r *ResSusRand) OnSuspend(_ *job.Job, eligible []int, _ sched.PoolView) (int, bool) {
	return randomCandidate(r.rng, eligible)
}

// WaitThreshold implements Policy.
func (*ResSusRand) WaitThreshold() float64 { return 0 }

// SaveState implements sim.Stateful: the RNG stream position, so a
// restored policy draws the exact stream a never-interrupted one would.
func (r *ResSusRand) SaveState(e *snap.Encoder) { r.rng.SaveState(e) }

// LoadState implements sim.Stateful.
func (r *ResSusRand) LoadState(d *snap.Decoder) error { return r.rng.LoadState(d) }

// OnWaitTimeout implements Policy.
func (*ResSusRand) OnWaitTimeout(*job.Job, []int, sched.PoolView) (int, bool) {
	return 0, false
}

// ResSusWaitUtil combines suspended-job and waiting-job rescheduling,
// both guided by utilization (§3.3): "Reschedule each waiting job that
// have passed the threshold at the pool with lowest utilization."
type ResSusWaitUtil struct {
	// Threshold is the queue-stall threshold in minutes.
	Threshold float64
}

var _ Policy = ResSusWaitUtil{}

// NewResSusWaitUtil returns the combined utilization-guided policy with
// the paper's 30-minute threshold.
func NewResSusWaitUtil() ResSusWaitUtil {
	return ResSusWaitUtil{Threshold: DefaultWaitThreshold}
}

// Name implements Policy.
func (ResSusWaitUtil) Name() string { return "ResSusWaitUtil" }

// OnSuspend implements Policy.
func (ResSusWaitUtil) OnSuspend(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	return lowestUtilAlternate(j, eligible, view)
}

// WaitThreshold implements Policy.
func (p ResSusWaitUtil) WaitThreshold() float64 { return p.Threshold }

// OnWaitTimeout implements Policy.
func (ResSusWaitUtil) OnWaitTimeout(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	return lowestUtilAlternate(j, eligible, view)
}

// ResSusWaitRand combines suspended-job and waiting-job rescheduling
// with random pool selection. The paper's surprise result: thanks to
// "multiple second chances", it performs close to the utilization-based
// variant while needing no pool statistics at all — each waiting job
// could implement it alone with a timer (§3.3.2).
type ResSusWaitRand struct {
	// Threshold is the queue-stall threshold in minutes.
	Threshold float64

	rng *stats.RNG
}

var _ Policy = (*ResSusWaitRand)(nil)

// NewResSusWaitRand returns the combined random policy with the paper's
// 30-minute threshold.
func NewResSusWaitRand(seed uint64) *ResSusWaitRand {
	return &ResSusWaitRand{Threshold: DefaultWaitThreshold, rng: stats.NewRNG(seed)}
}

// Name implements Policy.
func (*ResSusWaitRand) Name() string { return "ResSusWaitRand" }

// OnSuspend implements Policy.
func (r *ResSusWaitRand) OnSuspend(_ *job.Job, eligible []int, _ sched.PoolView) (int, bool) {
	return randomCandidate(r.rng, eligible)
}

// WaitThreshold implements Policy.
func (r *ResSusWaitRand) WaitThreshold() float64 { return r.Threshold }

// SaveState implements sim.Stateful: the RNG stream position.
func (r *ResSusWaitRand) SaveState(e *snap.Encoder) { r.rng.SaveState(e) }

// LoadState implements sim.Stateful.
func (r *ResSusWaitRand) LoadState(d *snap.Decoder) error { return r.rng.LoadState(d) }

// OnWaitTimeout implements Policy.
func (r *ResSusWaitRand) OnWaitTimeout(_ *job.Job, eligible []int, _ sched.PoolView) (int, bool) {
	return randomCandidate(r.rng, eligible)
}

// ResSusMigrate is the checkpoint-migration alternative the paper
// weighs against restart-based rescheduling (§2.3, §4): the suspended
// job moves to the least-utilized pool like ResSusUtil, but keeps its
// execution progress and instead pays Overhead minutes of transfer
// delay per move (checkpoint + image transfer).
type ResSusMigrate struct {
	// Overhead is the per-migration transfer delay in minutes.
	Overhead float64
}

var (
	_ Policy   = ResSusMigrate{}
	_ Migrator = ResSusMigrate{}
)

// NewResSusMigrate returns the migration policy with the given
// per-move transfer overhead in minutes.
func NewResSusMigrate(overhead float64) ResSusMigrate {
	return ResSusMigrate{Overhead: overhead}
}

// Name implements Policy.
func (ResSusMigrate) Name() string { return "ResSusMigrate" }

// OnSuspend implements Policy.
func (ResSusMigrate) OnSuspend(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	return lowestUtilAlternate(j, eligible, view)
}

// WaitThreshold implements Policy.
func (ResSusMigrate) WaitThreshold() float64 { return 0 }

// OnWaitTimeout implements Policy.
func (ResSusMigrate) OnWaitTimeout(*job.Job, []int, sched.PoolView) (int, bool) {
	return 0, false
}

// MigrationOverhead implements Migrator.
func (m ResSusMigrate) MigrationOverhead() float64 { return m.Overhead }
