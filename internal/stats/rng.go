// Package stats provides the statistical substrate for the NetBatch
// reproduction: a seedable deterministic random number generator,
// the workload distributions the synthetic trace generator draws from
// (lognormal, Pareto, exponential, bounded uniforms), and the summary
// machinery used by the metrics layer (online moments, quantiles,
// empirical CDFs).
//
// Everything in this package is deterministic given a seed, which is
// what makes every experiment in the repository reproducible.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"

	"netbatch/internal/snap"
)

// RNG is a deterministic, seedable source of random variates.
//
// It wraps math/rand/v2's PCG generator with explicit, savable state:
// SaveState captures the generator mid-stream and LoadState resumes it
// so that a straight run and a save/restore run draw identical streams
// (the checkpoint/restore contract). RNG is not safe for concurrent
// use; the simulator is single-threaded by design, and parallel
// experiment runners each own a distinct RNG.
type RNG struct {
	src  *rand.Rand
	pcg  *rand.PCG
	seed uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs created with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{src: rand.New(pcg), pcg: pcg, seed: seed}
}

// SaveState appends the generator's state: the seed its keyed forks
// derive from (SplitKey/ForkSeed are pure functions of it) and the PCG
// generator's marshaled position in its stream. Saving consumes no
// draws.
func (r *RNG) SaveState(e *snap.Encoder) {
	data, err := r.pcg.MarshalBinary()
	if err != nil {
		// rand.PCG.MarshalBinary cannot fail; keep the signature clean.
		panic("stats: PCG marshal failed: " + err.Error())
	}
	e.U64(r.seed)
	e.Bytes(data)
}

// LoadState repositions the generator to a state SaveState saved:
// subsequent draws (and keyed forks) are identical to those the saving
// generator produced after the save. Bytes that are no PCG state fail
// with snap.ErrMismatch.
func (r *RNG) LoadState(d *snap.Decoder) error {
	seed, data := d.U64(), d.Bytes()
	if d.Err() != nil {
		return d.Err()
	}
	if err := r.pcg.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("%w: RNG state: %v", snap.ErrMismatch, err)
	}
	r.seed = seed
	return nil
}

// Split derives an independent generator from the current stream. It is
// used to give each subsystem (arrival process, runtime sampler, burst
// process, ...) its own stream so that adding draws to one subsystem
// does not perturb the others. Split consumes parent state: use SplitKey
// when the fork must not depend on how many draws preceded it.
func (r *RNG) Split() *RNG {
	a, b := r.src.Uint64(), r.src.Uint64()
	pcg := rand.NewPCG(a, b)
	return &RNG{src: rand.New(pcg), pcg: pcg, seed: a}
}

// SplitKey derives an independent generator identified by key without
// consuming any state from r: the child stream is a pure function of
// r's seed and the key. Distinct keys yield independent streams, and
// the result does not depend on draw or fork order — which is what lets
// a parallel experiment runner hand each matrix cell its own stream and
// still produce results identical to a serial run.
func (r *RNG) SplitKey(key uint64) *RNG {
	return NewRNG(ForkSeed(r.seed, key))
}

// ForkSeed deterministically derives a child seed from a parent seed
// and a sequence of keys using the splitmix64 finalizer. It is pure:
// the same (seed, keys...) always yields the same child, independent of
// call order, so keyed forks commute across goroutines.
func ForkSeed(seed uint64, keys ...uint64) uint64 {
	out := splitmix64(seed + 0x9e3779b97f4a7c15)
	for _, k := range keys {
		out = splitmix64(out ^ splitmix64(k+0x9e3779b97f4a7c15))
	}
	return out
}

// splitmix64 is the finalizer from Steele et al.'s SplitMix generator,
// a strong 64-bit mixer with no fixed point at zero inputs once offset.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand/v2.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Exp returns an exponential variate with the given mean. It panics if
// mean <= 0.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp requires mean > 0")
	}
	return r.src.ExpFloat64() * mean
}

// Lognormal returns a lognormal variate parameterized by the mu and sigma
// of the underlying normal distribution.
func (r *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Pareto returns a Pareto variate with minimum xm and shape alpha.
// It panics if xm <= 0 or alpha <= 0.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("stats: Pareto requires xm > 0 and alpha > 0")
	}
	// Inverse transform sampling; 1-U avoids a zero denominator.
	u := 1 - r.src.Float64()
	return xm / math.Pow(u, 1/alpha)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bool(p float64) bool {
	return r.src.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// PickWeighted returns an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if weights is empty or the total
// weight is not positive.
func (r *RNG) PickWeighted(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: PickWeighted requires at least one weight")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: PickWeighted requires non-negative weights")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: PickWeighted requires positive total weight")
	}
	x := r.src.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// PickWeightedSupport is PickWeighted over the indices in support
// alone: weights outside support count as zero, so only support is
// summed and scanned. With support ascending it returns exactly the
// index PickWeighted returns on a copy of weights with every entry
// outside support zeroed, because a zero weight changes neither the
// running total nor where the scan stops. That includes the rounding
// fallthrough, which returns len(weights)-1 whether or not that index
// is in support. It panics if a weight in support is negative or their
// total is not positive.
func (r *RNG) PickWeightedSupport(weights []float64, support []int) int {
	var total float64
	for _, i := range support {
		if weights[i] < 0 {
			panic("stats: PickWeightedSupport requires non-negative weights")
		}
		total += weights[i]
	}
	if total <= 0 {
		panic("stats: PickWeightedSupport requires positive total weight")
	}
	x := r.src.Float64() * total
	for _, i := range support {
		x -= weights[i]
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
