// Package sched implements NetBatch's virtual-pool-manager initial
// schedulers: the policies that pick which physical pool a newly
// submitted job is sent to.
//
// The paper evaluates two (§3.2.1): the production round-robin scheduler
// and a utilization-based scheduler that sends each job to the pool with
// the lowest current utilization. Rescheduling policies (what happens
// after suspension or a stalled wait) live in package core; they
// complement whichever initial scheduler is in use.
package sched

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"netbatch/internal/job"
	"netbatch/internal/snap"
	"netbatch/internal/stats"
)

// PoolView is the read-only view of pool state that scheduling and
// rescheduling policies may consult. The simulator provides it. Views
// may be deliberately stale (see the staleness knob in the simulator):
// the paper notes that exact utilization-based scheduling "can be
// impractical in reality given the unavoidable propagation latency
// between different pools" (§3.2.2).
type PoolView interface {
	// Utilization returns pool's busy-core fraction in [0, 1].
	Utilization(pool int) float64
	// QueueLen returns the number of jobs waiting in pool's queue.
	QueueLen(pool int) int
	// PoolCores returns pool's total core count.
	PoolCores(pool int) int
}

// InitialScheduler selects the physical pool for a newly submitted job.
type InitialScheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// SelectPool returns the chosen pool, which must be one of eligible:
	// the job's candidate pools that hold a machine meeting its static
	// requirements (OS, memory, cores), in candidate order and never
	// empty (§2.1: the virtual pool manager skips the others). The
	// simulator works the list out and rejects a pick outside it;
	// eligible is valid only for the call.
	SelectPool(spec *job.Spec, eligible []int, view PoolView) int
}

// RoundRobin is NetBatch's default initial scheduler: "the default
// scheduling follows a round-robin fashion" (§2.1), distributing
// "according to resource availability and NetBatch configurations".
// The default rotation has the first two properties below; the other
// two are variants:
//
//   - Weighted turns (default): pools rotate in proportion to their
//     core capacity, so a 2400-core pool takes eight turns for every
//     turn of a 300-core pool.
//   - Load-oblivious (default): the rotation ignores queue lengths,
//     which is what lets jobs pile up behind bursts in heavily utilized
//     pools ("particularly exacerbated by NetBatch's use of the round
//     robin scheduler", §3.3).
//   - AvoidQueues (extension): skip pools with a non-empty wait queue
//     while some eligible pool has an empty one — an availability-
//     aware refinement used by the ablation benches.
//   - Pure: strictly equal turns regardless of size; with
//     heterogeneous pools this drowns small pools (ablation).
//
// Round-robin state is kept per distinct eligible set, since different
// job classes rotate over different pool sets.
type RoundRobin struct {
	// Pure selects strictly-equal turns instead of capacity-weighted.
	Pure bool
	// AvoidQueues enables the queue-availability filter.
	AvoidQueues bool

	cursors map[string]*int
	wrr     map[string]*wrrState
	key     []byte // candidate-set key reuse; never retained
}

var _ InitialScheduler = (*RoundRobin)(nil)

// NewRoundRobin returns the capacity-weighted round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// NewPureRoundRobin returns the strictly-equal-turns variant.
func NewPureRoundRobin() *RoundRobin { return &RoundRobin{Pure: true} }

// Name implements InitialScheduler.
func (r *RoundRobin) Name() string {
	switch {
	case r.Pure:
		return "rr-pure"
	case r.AvoidQueues:
		return "rr-avail"
	default:
		return "rr"
	}
}

// SelectPool implements InitialScheduler: the next turn of the
// rotation over eligible.
func (r *RoundRobin) SelectPool(_ *job.Spec, eligible []int, view PoolView) int {
	// Lookups convert the reused key bytes without allocating; only a
	// new candidate set pays for its key string.
	r.key = appendCandidateKey(r.key[:0], eligible)
	if r.Pure {
		cur := r.cursors[string(r.key)]
		if cur == nil {
			if r.cursors == nil {
				r.cursors = make(map[string]*int)
			}
			cur = new(int)
			r.cursors[string(r.key)] = cur
		}
		idx := *cur
		*cur++
		return eligible[idx%len(eligible)]
	}
	st, ok := r.wrr[string(r.key)]
	if !ok {
		if r.wrr == nil {
			r.wrr = make(map[string]*wrrState)
		}
		st = newWRRState(eligible, view)
		r.wrr[string(r.key)] = st
	}
	if !r.AvoidQueues {
		return st.next()
	}
	// Availability filter: rotate until a pool with an empty wait queue
	// turns up; if every candidate is backlogged, take the one with the
	// shortest queue among a full rotation (the pool is overloaded
	// either way, §3.3's stalled-jobs discussion).
	best, bestQ := -1, 0
	for range eligible {
		p := st.next()
		q := view.QueueLen(p)
		if q == 0 {
			return p
		}
		if best == -1 || q < bestQ {
			best, bestQ = p, q
		}
	}
	return best
}

// SaveState implements sim.Stateful: the rotations, one per candidate
// set in ascending key order, so a checkpointed simulation resumes with
// identical turns. Equal-turns cursors come first as (key, turns
// taken), then capacity-weighted rotations as (key, pools, weights,
// current weights).
func (r *RoundRobin) SaveState(e *snap.Encoder) {
	e.Int(len(r.cursors))
	for _, k := range slices.Sorted(maps.Keys(r.cursors)) {
		e.Str(k)
		e.Int(*r.cursors[k])
	}
	e.Int(len(r.wrr))
	for _, k := range slices.Sorted(maps.Keys(r.wrr)) {
		st := r.wrr[k]
		e.Str(k)
		e.Ints(st.pools)
		e.Ints(st.weights)
		e.Ints(st.current)
	}
}

// LoadState implements sim.Stateful. A rotation must turn over exactly
// the pools its key spells, with a weight and a current weight per
// pool: SelectPool consults a rotation only for the eligible pools its
// key was built from, so a rotation that passes never indexes past its
// lists or returns a pool outside the job's candidates. A cursor must
// not be negative.
func (r *RoundRobin) LoadState(d *snap.Decoder) error {
	// A cursor is at least two words, a rotation four.
	n := d.Count(-1, 16)
	r.cursors = make(map[string]*int, n)
	for range n {
		k, c := d.Str(), d.Int()
		if c < 0 {
			return fmt.Errorf("%w: round-robin cursor %d for candidate set %q", snap.ErrMismatch, c, k)
		}
		r.cursors[k] = &c
	}
	n = d.Count(-1, 32)
	r.wrr = make(map[string]*wrrState, n)
	for range n {
		k := d.Str()
		st := &wrrState{pools: d.IntsN(-1)}
		st.weights, st.current = d.IntsN(-1), d.IntsN(-1)
		r.key = appendCandidateKey(r.key[:0], st.pools)
		if d.Err() == nil && (string(r.key) != k || len(st.weights) != len(st.pools) || len(st.current) != len(st.pools)) {
			return fmt.Errorf("%w: round-robin rotation over pools %v (weights %v, current %v) under candidate set %q",
				snap.ErrMismatch, st.pools, st.weights, st.current, k)
		}
		for _, w := range st.weights {
			st.total += w
		}
		r.wrr[k] = st
	}
	return d.Err()
}

// wrrState implements smooth weighted round-robin (the nginx algorithm):
// each turn, every pool's current weight grows by its capacity; the
// largest current weight wins and is decremented by the total. The
// resulting sequence interleaves pools proportionally to capacity.
type wrrState struct {
	pools   []int
	weights []int
	current []int
	total   int
}

func newWRRState(pools []int, view PoolView) *wrrState {
	st := &wrrState{
		pools:   append([]int(nil), pools...),
		weights: make([]int, len(pools)),
		current: make([]int, len(pools)),
	}
	for i, p := range pools {
		w := view.PoolCores(p)
		if w < 1 {
			w = 1
		}
		st.weights[i] = w
		st.total += w
	}
	return st
}

func (st *wrrState) next() int {
	best := 0
	for i := range st.pools {
		st.current[i] += st.weights[i]
		if st.current[i] > st.current[best] {
			best = i
		}
	}
	st.current[best] -= st.total
	return st.pools[best]
}

// UtilizationBased sends each job to the eligible pool with the lowest
// current utilization (§3.2.2). Ties break toward the first-listed
// candidate for determinism.
type UtilizationBased struct{}

var _ InitialScheduler = (*UtilizationBased)(nil)

// NewUtilizationBased returns the utilization-based initial scheduler.
func NewUtilizationBased() *UtilizationBased { return &UtilizationBased{} }

// Name implements InitialScheduler.
func (u *UtilizationBased) Name() string { return "util" }

// SelectPool implements InitialScheduler.
func (u *UtilizationBased) SelectPool(_ *job.Spec, eligible []int, view PoolView) int {
	best, bestUtil := -1, 0.0
	for _, p := range eligible {
		if util := view.Utilization(p); best == -1 || util < bestUtil {
			best, bestUtil = p, util
		}
	}
	return best
}

// RandomInitial sends each job to a uniformly random eligible pool. It
// is not one of the paper's initial schedulers but serves as an
// ablation baseline between round-robin and utilization-based.
type RandomInitial struct {
	rng *stats.RNG
}

var _ InitialScheduler = (*RandomInitial)(nil)

// NewRandomInitial returns a random initial scheduler with its own
// deterministic stream.
func NewRandomInitial(seed uint64) *RandomInitial {
	return &RandomInitial{rng: stats.NewRNG(seed)}
}

// Name implements InitialScheduler.
func (r *RandomInitial) Name() string { return "random" }

// SelectPool implements InitialScheduler.
func (r *RandomInitial) SelectPool(_ *job.Spec, eligible []int, _ PoolView) int {
	return eligible[r.rng.IntN(len(eligible))]
}

// SaveState implements sim.Stateful: the RNG stream position.
func (r *RandomInitial) SaveState(e *snap.Encoder) { r.rng.SaveState(e) }

// LoadState implements sim.Stateful.
func (r *RandomInitial) LoadState(d *snap.Decoder) error { return r.rng.LoadState(d) }

// appendCandidateKey appends the map key identifying a candidate set to
// b. The encoding ("%d," per pool) is also the per-candidate-set key in
// saved scheduler state, so it must stay stable across versions.
func appendCandidateKey(b []byte, pools []int) []byte {
	for _, p := range pools {
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ',')
	}
	return b
}
