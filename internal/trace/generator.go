package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"netbatch/internal/job"
	"netbatch/internal/stats"
)

// WorkDist describes a job service-demand distribution: a lognormal body
// with an optional Pareto tail, capped. This reproduces the paper's
// long-tailed runtime observation ("a long-tailed distribution of jobs
// that require more than 100k minutes to complete", §2.2).
type WorkDist struct {
	// Median of the lognormal body, in minutes.
	Median float64 `json:"median"`
	// Sigma of the lognormal body (log-space standard deviation).
	Sigma float64 `json:"sigma"`
	// TailFrac is the probability a job is drawn from the Pareto tail.
	TailFrac float64 `json:"tail_frac"`
	// TailMin is the Pareto scale (minimum tail value), minutes.
	TailMin float64 `json:"tail_min"`
	// TailAlpha is the Pareto shape; smaller = heavier tail.
	TailAlpha float64 `json:"tail_alpha"`
	// Cap truncates all draws, minutes. Zero means no cap.
	Cap float64 `json:"cap"`
}

// Sample draws one service demand.
func (w *WorkDist) Sample(r *stats.RNG) float64 {
	var v float64
	if w.TailFrac > 0 && r.Bool(w.TailFrac) {
		v = r.Pareto(w.TailMin, w.TailAlpha)
	} else {
		v = r.Lognormal(math.Log(w.Median), w.Sigma)
	}
	if w.Cap > 0 && v > w.Cap {
		v = w.Cap
	}
	// An uncapped extreme draw (a huge sigma, a tiny tail alpha) can
	// overflow to +Inf, which is not a valid demand; the largest finite
	// one keeps the job valid, and it simply never finishes.
	v = math.Min(v, math.MaxFloat64)
	if v < 1 {
		v = 1 // sub-minute jobs round up; the simulator works in minutes
	}
	return v
}

// Mean returns the analytic mean of the (uncapped) distribution; the cap
// makes the true mean slightly smaller. Used for calibration estimates.
func (w *WorkDist) Mean() float64 {
	body := w.Median * math.Exp(w.Sigma*w.Sigma/2)
	tail := 0.0
	if w.TailFrac > 0 && w.TailAlpha > 1 {
		tail = w.TailMin * w.TailAlpha / (w.TailAlpha - 1)
	}
	return (1-w.TailFrac)*body + w.TailFrac*tail
}

// Validate reports configuration errors.
func (w *WorkDist) Validate() error {
	if err := checkFinite("work dist", w.Median, w.Sigma, w.TailFrac, w.TailMin, w.TailAlpha, w.Cap); err != nil {
		return err
	}
	switch {
	case w.Median <= 0:
		return fmt.Errorf("work dist: non-positive median %v", w.Median)
	case w.Sigma < 0:
		return fmt.Errorf("work dist: negative sigma %v", w.Sigma)
	case w.TailFrac < 0 || w.TailFrac > 1:
		return fmt.Errorf("work dist: tail fraction %v outside [0,1]", w.TailFrac)
	case w.TailFrac > 0 && (w.TailMin <= 0 || w.TailAlpha <= 0):
		return fmt.Errorf("work dist: tail requires positive min and alpha")
	}
	return nil
}

// Burst is one episode of high-priority arrivals restricted to a pool
// subset ("latency sensitive jobs with high priority are usually
// configured to only run in specific sets of physical pools", §2.3).
type Burst struct {
	// Start is the burst onset, minutes.
	Start float64 `json:"start"`
	// Duration is the burst length, minutes ("from several hours to a
	// week", §2.3).
	Duration float64 `json:"duration"`
	// Rate is the high-priority arrival rate during the burst, jobs/min.
	Rate float64 `json:"rate"`
	// Pools are the candidate pools of the burst's jobs. Empty means
	// the generator's OwnedPools.
	Pools []int `json:"pools,omitempty"`
}

// AutoBursts parameterizes randomly placed bursts for long (year-scale)
// traces, reproducing Figure 4's recurring suspension spikes.
type AutoBursts struct {
	// MeanGap is the mean minutes between burst onsets (exponential).
	MeanGap float64 `json:"mean_gap"`
	// MeanDuration is the mean burst duration (exponential, capped at
	// MaxDuration).
	MeanDuration float64 `json:"mean_duration"`
	// MaxDuration caps burst length; the paper observes up to a week.
	MaxDuration float64 `json:"max_duration"`
	// Rate is the high-priority arrival rate during bursts, jobs/min.
	Rate float64 `json:"rate"`
	// PoolsPerBurst is how many owned pools each burst targets.
	PoolsPerBurst int `json:"pools_per_burst"`
}

// MaxPools bounds GeneratorConfig.NumPools. Generate keeps several
// tables of NumPools entries, so an unbounded count could exhaust
// memory before a single job is drawn. The presets use 20 pools, or 7
// per site (PoolsPerSite); the bound leaves thousands of sites' room.
const MaxPools = 1 << 16

// GeneratorConfig fully parameterizes a synthetic NetBatch trace.
type GeneratorConfig struct {
	// Seed makes generation deterministic.
	Seed uint64 `json:"seed"`
	// Horizon is the trace length in minutes.
	Horizon float64 `json:"horizon"`
	// NumPools is the size of the candidate-pool universe; low-priority
	// jobs may run in any pool. At most MaxPools.
	NumPools int `json:"num_pools"`
	// OwnedPools are the pools owned by high-priority business groups;
	// burst jobs are restricted to (subsets of) them.
	OwnedPools []int `json:"owned_pools"`

	// LowRate is the base low-priority arrival rate, jobs/min.
	LowRate float64 `json:"low_rate"`
	// DiurnalAmplitude modulates LowRate sinusoidally over DiurnalPeriod
	// (0 disables; 0.3 means ±30%).
	DiurnalAmplitude float64 `json:"diurnal_amplitude"`
	// DiurnalPeriod is the modulation period, minutes (default 1440).
	DiurnalPeriod float64 `json:"diurnal_period"`

	// SubsetSize is the number of candidate pools a restricted
	// low-priority job may run in. Zero means every low-priority job may
	// run anywhere. NetBatch jobs carry configured pool sets ("jobs ...
	// configured to only run in specific sets of physical pools", §2.3);
	// restricted sets are what make poor rescheduling choices sticky.
	SubsetSize int `json:"subset_size"`
	// AllFraction is the probability a low-priority job is unrestricted
	// (candidates = all pools) instead of carrying a SubsetSize subset.
	AllFraction float64 `json:"all_fraction"`
	// OwnedWeight down-weights owned pools when sampling a restricted
	// job's candidate subset: opportunistic low-priority work mostly
	// targets unowned capacity and borrows owned machines only "when
	// they are idle" (§2.2). 1.0 = no down-weighting.
	OwnedWeight float64 `json:"owned_weight"`
	// AffinityGroups partitions pools into locality groups (data
	// placement, site proximity). A restricted job anchors in one group
	// and draws most of its candidate subset from it, so a burst that
	// crushes a group leaves the group's jobs with few cool
	// alternatives — the dynamics behind the paper's ResSusRand
	// backfire (§3.2.1). Empty disables clustering.
	AffinityGroups [][]int `json:"affinity_groups,omitempty"`
	// AffinityStrength is the probability each additional subset member
	// is drawn from the anchor's group rather than platform-wide.
	AffinityStrength float64 `json:"affinity_strength"`

	// SitePools assigns pools to data-center sites (a full partition of
	// the pool universe, site-major). Empty means a single-site trace:
	// every job carries Site 0. With sites configured, each low-priority
	// job is assigned an origin site (weighted by the site's pool count)
	// and burst jobs originate at the site of their first target pool.
	SitePools [][]int `json:"site_pools,omitempty"`
	// SiteLocalFraction is the probability a restricted low-priority
	// job's candidate subset is drawn only from its origin site's pools
	// (data-placement locality); the rest sample platform-wide.
	SiteLocalFraction float64 `json:"site_local_fraction,omitempty"`

	// LowWork and HighWork are the service-demand distributions per
	// priority class.
	LowWork  WorkDist `json:"low_work"`
	HighWork WorkDist `json:"high_work"`

	// MemClassesMB and MemWeights give the job memory-requirement mix.
	MemClassesMB []int     `json:"mem_classes_mb"`
	MemWeights   []float64 `json:"mem_weights"`
	// CoresClasses and CoresWeights give the per-job core-count mix.
	CoresClasses []int     `json:"cores_classes"`
	CoresWeights []float64 `json:"cores_weights"`

	// Bursts are explicit high-priority episodes.
	Bursts []Burst `json:"bursts,omitempty"`
	// Auto, when non-nil, adds randomly placed bursts (year traces).
	Auto *AutoBursts `json:"auto,omitempty"`

	// TaskFraction is the probability a low-priority job belongs to a
	// multi-job task (§2.2); TaskMeanSize is the mean task size
	// (geometric, ≥2).
	TaskFraction float64 `json:"task_fraction"`
	TaskMeanSize float64 `json:"task_mean_size"`
}

// checkFinite rejects NaN and ±Inf among a config's float fields. It
// runs ahead of each range check, which NaN would pass (every ordered
// comparison with NaN is false). Presets multiply rates by a caller's
// scale, so a non-finite scale arrives here as a non-finite rate.
func checkFinite(what string, vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: non-finite value %v", what, v)
		}
	}
	return nil
}

// Validate reports configuration errors.
func (c *GeneratorConfig) Validate() error {
	if err := checkFinite("generator", c.Horizon, c.LowRate, c.DiurnalAmplitude, c.DiurnalPeriod,
		c.AllFraction, c.OwnedWeight, c.AffinityStrength, c.SiteLocalFraction,
		c.TaskFraction, c.TaskMeanSize); err != nil {
		return err
	}
	if err := checkFinite("generator: memory weights", c.MemWeights...); err != nil {
		return err
	}
	if err := checkFinite("generator: cores weights", c.CoresWeights...); err != nil {
		return err
	}
	for bi, b := range c.Bursts {
		if err := checkFinite(fmt.Sprintf("generator: burst %d", bi), b.Start, b.Duration, b.Rate); err != nil {
			return err
		}
	}
	if a := c.Auto; a != nil {
		if err := checkFinite("generator: auto bursts", a.MeanGap, a.MeanDuration, a.MaxDuration, a.Rate); err != nil {
			return err
		}
	}
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("generator: non-positive horizon %v", c.Horizon)
	case c.NumPools <= 0:
		return fmt.Errorf("generator: non-positive pool count %d", c.NumPools)
	case c.NumPools > MaxPools:
		return fmt.Errorf("generator: pool count %d above the maximum %d", c.NumPools, MaxPools)
	case c.LowRate < 0:
		return fmt.Errorf("generator: negative low rate %v", c.LowRate)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1:
		return fmt.Errorf("generator: diurnal amplitude %v outside [0,1)", c.DiurnalAmplitude)
	case len(c.MemClassesMB) == 0 || len(c.MemClassesMB) != len(c.MemWeights):
		return fmt.Errorf("generator: memory classes/weights mismatch")
	case len(c.CoresClasses) == 0 || len(c.CoresClasses) != len(c.CoresWeights):
		return fmt.Errorf("generator: cores classes/weights mismatch")
	case c.DiurnalPeriod < 0:
		return fmt.Errorf("generator: negative diurnal period %v", c.DiurnalPeriod)
	case c.TaskFraction < 0 || c.TaskFraction > 1:
		return fmt.Errorf("generator: task fraction %v outside [0,1]", c.TaskFraction)
	case c.SubsetSize < 0 || c.SubsetSize > c.NumPools:
		return fmt.Errorf("generator: subset size %d outside [0,%d]", c.SubsetSize, c.NumPools)
	case c.AllFraction < 0 || c.AllFraction > 1:
		return fmt.Errorf("generator: all-pools fraction %v outside [0,1]", c.AllFraction)
	case c.SubsetSize > 0 && c.OwnedWeight < 0:
		return fmt.Errorf("generator: negative owned weight %v", c.OwnedWeight)
	case c.AffinityStrength < 0 || c.AffinityStrength > 1:
		return fmt.Errorf("generator: affinity strength %v outside [0,1]", c.AffinityStrength)
	case c.SiteLocalFraction < 0 || c.SiteLocalFraction > 1:
		return fmt.Errorf("generator: site-local fraction %v outside [0,1]", c.SiteLocalFraction)
	}
	// The coverage checks size their sets by what the config lists, not
	// by NumPools, which is unchecked until coverage holds.
	if len(c.SitePools) > 0 {
		seen := make(map[int]bool)
		for si, s := range c.SitePools {
			if len(s) == 0 {
				return fmt.Errorf("generator: site %d has no pools", si)
			}
			for _, p := range s {
				if p < 0 || p >= c.NumPools {
					return fmt.Errorf("generator: site %d pool %d out of range", si, p)
				}
				if seen[p] {
					return fmt.Errorf("generator: pool %d at multiple sites", p)
				}
				seen[p] = true
			}
		}
		if len(seen) != c.NumPools {
			return fmt.Errorf("generator: sites cover %d of %d pools", len(seen), c.NumPools)
		}
	}
	if len(c.AffinityGroups) > 0 {
		seen := make(map[int]bool)
		for gi, g := range c.AffinityGroups {
			if len(g) == 0 {
				return fmt.Errorf("generator: affinity group %d is empty", gi)
			}
			for _, p := range g {
				if p < 0 || p >= c.NumPools {
					return fmt.Errorf("generator: affinity group %d pool %d out of range", gi, p)
				}
				if seen[p] {
					return fmt.Errorf("generator: pool %d in multiple affinity groups", p)
				}
				seen[p] = true
			}
		}
		if len(seen) != c.NumPools {
			return fmt.Errorf("generator: affinity groups cover %d of %d pools", len(seen), c.NumPools)
		}
	}
	// Class values must be usable as job requirements and the weight
	// vectors must be drawable (PickWeighted rejects negative weights
	// and non-positive totals).
	if err := validateClasses("memory", c.MemClassesMB, c.MemWeights); err != nil {
		return err
	}
	if err := validateClasses("cores", c.CoresClasses, c.CoresWeights); err != nil {
		return err
	}
	if err := c.LowWork.Validate(); err != nil {
		return fmt.Errorf("generator: low work: %w", err)
	}
	if err := c.HighWork.Validate(); err != nil {
		return fmt.Errorf("generator: high work: %w", err)
	}
	// Burst jobs take a burst's pools, or the owned pools, as their
	// candidates, so a pool listed twice would be a duplicate candidate.
	for _, p := range c.OwnedPools {
		if p < 0 || p >= c.NumPools {
			return fmt.Errorf("generator: owned pool %d outside [0,%d)", p, c.NumPools)
		}
	}
	if p, ok := repeatedPool(c.OwnedPools); ok {
		return fmt.Errorf("generator: owned pool %d listed twice", p)
	}
	// An affinity draw picks its anchor by pool weight, so restricted
	// jobs that sample platform-wide need a pool with positive weight.
	if len(c.AffinityGroups) > 0 && c.SubsetSize > 0 && c.AllFraction < 1 &&
		(len(c.SitePools) == 0 || c.SiteLocalFraction < 1) &&
		c.OwnedWeight == 0 && len(c.OwnedPools) == c.NumPools {
		return fmt.Errorf("generator: owned weight 0 on every pool leaves affinity draws no weight")
	}
	for bi, b := range c.Bursts {
		if b.Start < 0 || b.Duration <= 0 || b.Rate <= 0 {
			return fmt.Errorf("generator: burst %d has invalid shape %+v", bi, b)
		}
		for _, p := range b.Pools {
			if p < 0 || p >= c.NumPools {
				return fmt.Errorf("generator: burst %d pool %d out of range", bi, p)
			}
		}
		if p, ok := repeatedPool(b.Pools); ok {
			return fmt.Errorf("generator: burst %d pool %d listed twice", bi, p)
		}
		if len(b.Pools) == 0 && len(c.OwnedPools) == 0 {
			return fmt.Errorf("generator: burst %d has no target pools and no owned pools", bi)
		}
	}
	if c.Auto != nil {
		a := c.Auto
		if a.MeanGap <= 0 || a.MeanDuration <= 0 || a.Rate <= 0 || a.PoolsPerBurst <= 0 {
			return fmt.Errorf("generator: invalid auto-burst config %+v", *a)
		}
		if len(c.OwnedPools) < a.PoolsPerBurst {
			return fmt.Errorf("generator: auto bursts need %d owned pools, have %d",
				a.PoolsPerBurst, len(c.OwnedPools))
		}
	}
	return nil
}

// repeatedPool returns the first pool that pools lists twice.
func repeatedPool(pools []int) (int, bool) {
	seen := make(map[int]bool, len(pools))
	for _, p := range pools {
		if seen[p] {
			return p, true
		}
		seen[p] = true
	}
	return 0, false
}

// validateClasses checks one (class values, weights) pair: positive
// values, non-negative weights, positive total weight.
func validateClasses(label string, classes []int, weights []float64) error {
	for i, v := range classes {
		if v <= 0 {
			return fmt.Errorf("generator: %s class %d has non-positive value %d", label, i, v)
		}
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("generator: %s weight %d invalid (%v)", label, i, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("generator: %s weights sum to %v, want positive", label, total)
	}
	return nil
}

// Generate synthesizes a trace from the configuration. Generation is
// deterministic: the same config (including Seed) yields the same trace.
//
// Every random quantity comes from one of seven streams, each a Split
// of the seed's root generator: arrival times (all low-priority
// arrivals, then each burst's in burst order), work and attributes
// (low-priority jobs in submission order, then burst jobs burst by
// burst), auto-burst layout, task grouping, candidate subsets and
// origin sites. The streams are independent, so a trace depends only
// on the order of draws within each stream, never on how draws from
// different streams interleave. That is what lets Generate draw every
// arrival time first and size the trace exactly before it draws
// anything else. Changing the order of draws within a stream changes
// the trace; TestPresetTracesPinned and FuzzGenerateMatchesReference
// fail on it.
func Generate(cfg GeneratorConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := stats.NewRNG(cfg.Seed)
	arrivalRNG := root.Split()
	workRNG := root.Split()
	attrRNG := root.Split()
	burstRNG := root.Split()
	taskRNG := root.Split()
	subsetRNG := root.Split()
	// siteRNG is split last so single-site traces generated by earlier
	// versions stay byte-identical; it is only drawn from when SitePools
	// is configured.
	siteRNG := root.Split()

	// Arrival pass: every submission time, in the arrival stream's order.
	lowT := lowArrivals(cfg, arrivalRNG)
	bursts := append([]Burst(nil), cfg.Bursts...)
	if cfg.Auto != nil {
		bursts = append(bursts, autoBursts(cfg, burstRNG)...)
	}
	var highT []float64
	burstEnd := make([]int, len(bursts))
	for bi, b := range bursts {
		end := math.Min(b.Start+b.Duration, cfg.Horizon)
		t := b.Start
		for {
			t += arrivalRNG.Exp(1 / b.Rate)
			if t >= end {
				break
			}
			highT = append(highT, t)
		}
		burstEnd[bi] = len(highT)
	}

	// The low-priority run is already in submission order. Burst jobs
	// are stable-sorted by submission time and merged into it, after
	// any low-priority job with an equal time: the order a stable sort
	// of the low-priority jobs followed by the burst jobs gives.
	order := make([]int, len(highT))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(highT[a], highT[b]) })
	highPos := make([]int, len(highT))

	specs := make([]job.Spec, len(lowT)+len(highT))
	place := newPlacer(&cfg, subsetRNG, siteRNG, len(lowT))
	h := 0
	for i, t := range lowT {
		for h < len(order) && highT[order[h]] < t {
			highPos[order[h]] = i + h
			h++
		}
		site, cands := place.low()
		specs[i+h] = job.Spec{
			ID:         job.ID(i + h + 1),
			Submit:     t,
			Work:       cfg.LowWork.Sample(workRNG),
			Cores:      cfg.CoresClasses[attrRNG.PickWeighted(cfg.CoresWeights)],
			MemMB:      cfg.MemClassesMB[attrRNG.PickWeighted(cfg.MemWeights)],
			Priority:   job.PriorityLow,
			Candidates: cands,
			Site:       site,
		}
	}
	for ; h < len(order); h++ {
		highPos[order[h]] = len(lowT) + h
	}

	g := 0
	for bi, b := range bursts {
		pools := b.Pools
		if len(pools) == 0 {
			pools = cfg.OwnedPools
		}
		// Each burst's jobs share a candidate slice; specs are read-only
		// downstream.
		cand := slices.Clone(pools)
		slices.Sort(cand)
		// Burst jobs belong to the business group at the site owning the
		// burst's first pool (§2.3: owners submit to the pools they own).
		site := place.siteOfPool[cand[0]]
		for ; g < burstEnd[bi]; g++ {
			pos := highPos[g]
			specs[pos] = job.Spec{
				ID:         job.ID(pos + 1),
				Submit:     highT[g],
				Work:       cfg.HighWork.Sample(workRNG),
				Cores:      cfg.CoresClasses[attrRNG.PickWeighted(cfg.CoresWeights)],
				MemMB:      cfg.MemClassesMB[attrRNG.PickWeighted(cfg.MemWeights)],
				Priority:   job.PriorityHigh,
				Candidates: cand,
				Site:       site,
			}
		}
	}

	assignTasks(specs, cfg, taskRNG)

	tr := &Trace{Jobs: specs}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("generator: produced invalid trace: %w", err)
	}
	return tr, nil
}

// lowArrivals draws the low-priority submission times, a diurnal
// nonhomogeneous Poisson process sampled by thinning, in order.
func lowArrivals(cfg GeneratorConfig, r *stats.RNG) []float64 {
	period := cfg.DiurnalPeriod
	if period <= 0 {
		period = 1440
	}
	maxRate := cfg.LowRate * (1 + cfg.DiurnalAmplitude)
	if maxRate <= 0 {
		return nil
	}
	// Room for the expected number of candidate arrivals, which the
	// accepted ones rarely exceed, saves regrowing a large buffer; the
	// bound keeps a huge rate from claiming a huge block up front.
	ts := make([]float64, 0, int(math.Min(maxRate*cfg.Horizon, maxArrivalPresize))+1)
	t := 0.0
	for {
		t += r.Exp(1 / maxRate)
		if t >= cfg.Horizon {
			return ts
		}
		rate := cfg.LowRate * (1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*t/period))
		if r.Bool(rate / maxRate) {
			ts = append(ts, t)
		}
	}
}

// maxArrivalPresize bounds lowArrivals' initial buffer (32 MiB).
const maxArrivalPresize = 1 << 22

// arenaChunk is the number of candidate pool IDs one arena allocation
// holds (128 KiB).
const arenaChunk = 1 << 14

// placer draws low-priority jobs' origin sites and candidate pool sets.
// A restricted job's candidates are drawn by weight without
// replacement. The scratch is reused from job to job: w holds the pool
// weights with the current draw's picks zeroed and picked marks them,
// and both are restored at the picks alone once the draw is done.
type placer struct {
	cfg       *GeneratorConfig
	subsetRNG *stats.RNG
	siteRNG   *stats.RNG

	allPools   []int
	weights    []float64 // per-pool sampling weights
	support    []int     // pools with positive weight, ascending
	groupOf    []int     // affinity group of each pool
	siteOfPool []int
	siteWeight []float64 // origin-site draw weights: each site's pool count
	// siteSupport holds each site's positive-weight pools, ascending:
	// a site-local draw sums and scans only these.
	siteSupport [][]int

	w      []float64
	picked []bool
	gw     []float64 // weights of the anchor's affinity group

	// arena is the unused tail of the current block of candidate IDs,
	// and budget bounds how many IDs the trace's remaining draws can
	// still take, so the last block is not oversized.
	arena  []int
	budget int
}

func newPlacer(cfg *GeneratorConfig, subsetRNG, siteRNG *stats.RNG, lowJobs int) *placer {
	n := cfg.NumPools
	p := &placer{
		cfg:        cfg,
		subsetRNG:  subsetRNG,
		siteRNG:    siteRNG,
		allPools:   make([]int, n),
		weights:    make([]float64, n),
		groupOf:    make([]int, n),
		siteOfPool: make([]int, n),
		siteWeight: make([]float64, len(cfg.SitePools)),
		w:          make([]float64, n),
		picked:     make([]bool, n),
		budget:     lowJobs * cfg.SubsetSize,
	}
	owned := make([]bool, n)
	for _, q := range cfg.OwnedPools {
		owned[q] = true
	}
	for q := range p.weights {
		p.allPools[q] = q
		p.weights[q] = 1.0
		if owned[q] && cfg.OwnedWeight >= 0 {
			p.weights[q] = cfg.OwnedWeight
		}
		if p.weights[q] > 0 {
			p.support = append(p.support, q)
		}
		p.groupOf[q] = -1
	}
	copy(p.w, p.weights)
	maxGroup := 0
	for gi, g := range cfg.AffinityGroups {
		for _, q := range g {
			p.groupOf[q] = gi
		}
		maxGroup = max(maxGroup, len(g))
	}
	p.gw = make([]float64, 0, maxGroup)
	p.siteSupport = make([][]int, len(cfg.SitePools))
	for si, s := range cfg.SitePools {
		p.siteWeight[si] = float64(len(s))
		for _, q := range s {
			p.siteOfPool[q] = si
			if p.weights[q] > 0 {
				p.siteSupport[si] = append(p.siteSupport[si], q)
			}
		}
		slices.Sort(p.siteSupport[si])
	}
	return p
}

// low draws one low-priority job's origin site and candidate pools.
func (p *placer) low() (site int, cands []int) {
	cfg := p.cfg
	if len(cfg.SitePools) > 0 {
		site = p.siteRNG.PickWeighted(p.siteWeight)
	}
	if cfg.SubsetSize == 0 || p.subsetRNG.Bool(cfg.AllFraction) {
		return site, p.allPools
	}
	if len(cfg.SitePools) > 0 && p.subsetRNG.Bool(cfg.SiteLocalFraction) {
		k := min(cfg.SubsetSize, len(cfg.SitePools[site]))
		return site, p.finish(p.subset(p.carve(k), k, p.siteSupport[site]))
	}
	if len(cfg.AffinityGroups) == 0 {
		return site, p.finish(p.subset(p.carve(cfg.SubsetSize), cfg.SubsetSize, p.support))
	}
	return site, p.finish(p.affinity(cfg.SubsetSize))
}

// subset completes out to k pools drawn from support.
func (p *placer) subset(out []int, k int, support []int) []int {
	for len(out) < k {
		out = p.next(out, k, support)
	}
	return out
}

// next adds to out one pool drawn by weight from support, without
// replacement. Drawing from support alone is the same as drawing from
// the full weight vector with every pool outside support zeroed: a
// zero weight changes neither a running total nor where a scan stops.
// Once support has no weight left, next fills out to k with the
// lowest-numbered unpicked pools, wherever they are (owned pools
// weighted 0). Either way out grows, and k never exceeds the pool
// count, so the fill always reaches k.
func (p *placer) next(out []int, k int, support []int) []int {
	var total float64
	for _, q := range support {
		total += p.w[q]
	}
	if total > 0 {
		return p.take(out, p.subsetRNG.PickWeightedSupport(p.w, support))
	}
	for q := 0; q < len(p.w) && len(out) < k; q++ {
		if !p.picked[q] {
			out = p.take(out, q)
		}
	}
	return out
}

// affinity draws a k-pool candidate subset clustered around a
// weighted-random anchor pool's affinity group: each further pool comes
// from the anchor's group with probability AffinityStrength while the
// group has weight left, and from every pool otherwise.
func (p *placer) affinity(k int) []int {
	r := p.subsetRNG
	anchor := r.PickWeighted(p.weights)
	group := p.cfg.AffinityGroups[p.groupOf[anchor]]
	out := p.take(p.carve(k), anchor)
	for len(out) < k {
		if r.Bool(p.cfg.AffinityStrength) {
			gw := p.gw[:0]
			var inGroup float64
			for _, q := range group {
				inGroup += p.w[q]
				gw = append(gw, p.w[q])
			}
			if inGroup > 0 {
				out = p.take(out, group[r.PickWeighted(gw)])
				continue
			}
		}
		out = p.next(out, k, p.support)
	}
	return out
}

// take adds pool q to the draw.
func (p *placer) take(out []int, q int) []int {
	p.picked[q] = true
	p.w[q] = 0
	return append(out, q)
}

// carve cuts room for exactly k candidate IDs from the arena. Its
// capacity is capped at k, so an append to one job's list reallocates
// instead of overwriting the next job's.
func (p *placer) carve(k int) []int {
	if len(p.arena) < k {
		p.arena = make([]int, max(k, min(p.budget, arenaChunk)))
	}
	out := p.arena[:0:k]
	p.arena = p.arena[k:]
	p.budget -= k
	return out
}

// finish restores the scratch at the draw's picks and returns the draw
// sorted.
func (p *placer) finish(out []int) []int {
	for _, q := range out {
		p.picked[q] = false
		p.w[q] = p.weights[q]
	}
	slices.Sort(out)
	return out
}

// autoBursts lays out random bursts across the horizon.
func autoBursts(cfg GeneratorConfig, r *stats.RNG) []Burst {
	a := cfg.Auto
	var out []Burst
	t := r.Exp(a.MeanGap)
	for t < cfg.Horizon {
		dur := r.Exp(a.MeanDuration)
		if a.MaxDuration > 0 && dur > a.MaxDuration {
			dur = a.MaxDuration
		}
		if dur < 60 {
			dur = 60
		}
		perm := r.Perm(len(cfg.OwnedPools))
		pools := make([]int, a.PoolsPerBurst)
		for i := range pools {
			pools[i] = cfg.OwnedPools[perm[i]]
		}
		out = append(out, Burst{Start: t, Duration: dur, Rate: a.Rate, Pools: pools})
		t += dur + r.Exp(a.MeanGap)
	}
	return out
}

// assignTasks groups consecutive low-priority jobs into tasks. Grouping
// consecutive submissions mirrors how simulation tasks fan out a set of
// jobs at once (§2.2).
func assignTasks(specs []job.Spec, cfg GeneratorConfig, r *stats.RNG) {
	if cfg.TaskFraction <= 0 {
		return
	}
	meanSize := cfg.TaskMeanSize
	if meanSize < 2 {
		meanSize = 2
	}
	var taskID int64
	i := 0
	for i < len(specs) {
		if specs[i].Priority != job.PriorityLow || !r.Bool(cfg.TaskFraction) {
			i++
			continue
		}
		// Geometric size with mean meanSize, at least 2.
		size := 2
		for r.Bool(1 - 1/(meanSize-1)) {
			size++
			if size >= 64 {
				break
			}
		}
		taskID++
		for k := 0; k < size && i < len(specs); i++ {
			if specs[i].Priority != job.PriorityLow {
				continue
			}
			specs[i].TaskID = taskID
			k++
		}
	}
}
