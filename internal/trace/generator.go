package trace

import (
	"fmt"
	"math"
	"sort"

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

// GeneratorConfig fully parameterizes a synthetic NetBatch trace.
type GeneratorConfig struct {
	// Seed makes generation deterministic.
	Seed uint64 `json:"seed"`
	// Horizon is the trace length in minutes.
	Horizon float64 `json:"horizon"`
	// NumPools is the size of the candidate-pool universe; low-priority
	// jobs may run in any pool.
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

	// Faults describes the failure/maintenance regime the trace is
	// meant to be replayed under. The generator itself never reads it —
	// job arrivals are independent of machine health — but presets
	// carry it here so one config fully describes an environment, and
	// the experiment layer maps it onto the engine's fault subsystem.
	Faults *FaultRegime `json:"faults,omitempty"`
}

// FaultRegime is the environment's failure and maintenance profile:
// the knobs the engine's fault subsystem is configured from. All times
// are minutes.
type FaultRegime struct {
	// MTBF is the mean time between machine crashes per site (0 = no
	// crashes); MTTR the mean repair time.
	MTBF float64 `json:"mtbf"`
	MTTR float64 `json:"mttr"`
	// MaintPeriod is the maintenance-window cadence per site (0 = no
	// windows); MaintDuration each window's length; MaintFraction the
	// fraction of a site's machines down per window.
	MaintPeriod   float64 `json:"maint_period"`
	MaintDuration float64 `json:"maint_duration"`
	MaintFraction float64 `json:"maint_fraction"`
	// Victim is the maintenance victim-job policy: "requeue" (default)
	// or "drain".
	Victim string `json:"victim,omitempty"`
}

// Validate reports configuration errors.
func (f *FaultRegime) Validate() error {
	if err := checkFinite("fault regime", f.MTBF, f.MTTR, f.MaintPeriod, f.MaintDuration, f.MaintFraction); err != nil {
		return err
	}
	switch {
	case f.MTBF < 0 || f.MTTR < 0 || f.MaintPeriod < 0 || f.MaintDuration < 0:
		return fmt.Errorf("fault regime: negative parameter %+v", *f)
	case f.MTBF > 0 && f.MTTR <= 0:
		return fmt.Errorf("fault regime: crashes need a positive MTTR")
	case f.MaintPeriod > 0 && (f.MaintDuration <= 0 || f.MaintDuration >= f.MaintPeriod):
		return fmt.Errorf("fault regime: maintenance duration %v outside (0, period %v)",
			f.MaintDuration, f.MaintPeriod)
	case f.MaintFraction < 0 || f.MaintFraction > 1:
		return fmt.Errorf("fault regime: maintenance fraction %v outside [0,1]", f.MaintFraction)
	}
	switch f.Victim {
	case "", "requeue", "drain":
	default:
		return fmt.Errorf("fault regime: unknown victim policy %q", f.Victim)
	}
	return nil
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
	if len(c.SitePools) > 0 {
		seen := make(map[int]bool, c.NumPools)
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
		seen := make(map[int]bool, c.NumPools)
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
	for _, p := range c.OwnedPools {
		if p < 0 || p >= c.NumPools {
			return fmt.Errorf("generator: owned pool %d outside [0,%d)", p, c.NumPools)
		}
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
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("generator: %w", err)
		}
	}
	return nil
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

	allPools := make([]int, cfg.NumPools)
	for i := range allPools {
		allPools[i] = i
	}
	owned := make(map[int]bool, len(cfg.OwnedPools))
	for _, p := range cfg.OwnedPools {
		owned[p] = true
	}
	poolWeights := make([]float64, cfg.NumPools)
	for p := range poolWeights {
		if owned[p] && cfg.OwnedWeight >= 0 {
			poolWeights[p] = cfg.OwnedWeight
		} else {
			poolWeights[p] = 1.0
		}
	}
	groupOf := make([]int, cfg.NumPools)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, g := range cfg.AffinityGroups {
		for _, p := range g {
			groupOf[p] = gi
		}
	}
	siteOfPool := make([]int, cfg.NumPools)
	siteWeights := make([]float64, len(cfg.SitePools))
	for si, s := range cfg.SitePools {
		siteWeights[si] = float64(len(s))
		for _, p := range s {
			siteOfPool[p] = si
		}
	}
	globalCandidates := func() []int {
		if len(cfg.AffinityGroups) == 0 {
			return sampleSubset(subsetRNG, poolWeights, cfg.SubsetSize)
		}
		return sampleAffinitySubset(subsetRNG, poolWeights, groupOf,
			cfg.AffinityGroups, cfg.AffinityStrength, cfg.SubsetSize)
	}
	// lowJobPlacement draws a low-priority job's origin site and
	// candidate pool set.
	lowJobPlacement := func() (int, []int) {
		if len(cfg.SitePools) == 0 {
			if cfg.SubsetSize == 0 || subsetRNG.Bool(cfg.AllFraction) {
				return 0, allPools
			}
			return 0, globalCandidates()
		}
		site := siteRNG.PickWeighted(siteWeights)
		if cfg.SubsetSize == 0 || subsetRNG.Bool(cfg.AllFraction) {
			return site, allPools
		}
		if subsetRNG.Bool(cfg.SiteLocalFraction) {
			// Mask the sampling weights down to the origin site's pools.
			local := make([]float64, cfg.NumPools)
			for _, p := range cfg.SitePools[site] {
				local[p] = poolWeights[p]
			}
			k := cfg.SubsetSize
			if n := len(cfg.SitePools[site]); k > n {
				k = n
			}
			return site, sampleSubset(subsetRNG, local, k)
		}
		return site, globalCandidates()
	}

	var specs []job.Spec

	// Low-priority base load: nonhomogeneous Poisson via thinning.
	period := cfg.DiurnalPeriod
	if period <= 0 {
		period = 1440
	}
	maxRate := cfg.LowRate * (1 + cfg.DiurnalAmplitude)
	if maxRate > 0 {
		t := 0.0
		for {
			t += arrivalRNG.Exp(1 / maxRate)
			if t >= cfg.Horizon {
				break
			}
			rate := cfg.LowRate * (1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*t/period))
			if !arrivalRNG.Bool(rate / maxRate) {
				continue
			}
			site, cands := lowJobPlacement()
			specs = append(specs, job.Spec{
				Submit:     t,
				Work:       cfg.LowWork.Sample(workRNG),
				Cores:      cfg.CoresClasses[attrRNG.PickWeighted(cfg.CoresWeights)],
				MemMB:      cfg.MemClassesMB[attrRNG.PickWeighted(cfg.MemWeights)],
				Priority:   job.PriorityLow,
				Candidates: cands,
				Site:       site,
			})
		}
	}

	// Explicit plus auto-generated bursts of high-priority jobs.
	bursts := append([]Burst(nil), cfg.Bursts...)
	if cfg.Auto != nil {
		bursts = append(bursts, autoBursts(cfg, burstRNG)...)
	}
	for _, b := range bursts {
		pools := b.Pools
		if len(pools) == 0 {
			pools = cfg.OwnedPools
		}
		// Each burst's jobs share a candidate slice; specs are read-only
		// downstream.
		cand := append([]int(nil), pools...)
		sort.Ints(cand)
		// Burst jobs belong to the business group at the site owning the
		// burst's first pool (§2.3: owners submit to the pools they own).
		burstSite := siteOfPool[cand[0]]
		end := math.Min(b.Start+b.Duration, cfg.Horizon)
		t := b.Start
		for {
			t += arrivalRNG.Exp(1 / b.Rate)
			if t >= end {
				break
			}
			specs = append(specs, job.Spec{
				Submit:     t,
				Work:       cfg.HighWork.Sample(workRNG),
				Cores:      cfg.CoresClasses[attrRNG.PickWeighted(cfg.CoresWeights)],
				MemMB:      cfg.MemClassesMB[attrRNG.PickWeighted(cfg.MemWeights)],
				Priority:   job.PriorityHigh,
				Candidates: cand,
				Site:       burstSite,
			})
		}
	}

	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Submit < specs[j].Submit })
	for i := range specs {
		specs[i].ID = job.ID(i + 1)
	}

	assignTasks(specs, cfg, taskRNG)

	tr := &Trace{Jobs: specs}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("generator: produced invalid trace: %w", err)
	}
	return tr, nil
}

// sampleSubset draws k distinct pool IDs without replacement, with
// per-pool weights, and returns them sorted.
func sampleSubset(r *stats.RNG, weights []float64, k int) []int {
	w := append([]float64(nil), weights...)
	picked := make([]bool, len(w))
	out := make([]int, 0, k)
	for len(out) < k && len(out) < len(w) {
		var total float64
		for _, x := range w {
			total += x
		}
		if total <= 0 {
			// Remaining weights are all zero (fully down-weighted owned
			// pools): fill in pool-ID order.
			for p := range w {
				if !picked[p] && len(out) < k {
					picked[p] = true
					out = append(out, p)
				}
			}
			break
		}
		pick := r.PickWeighted(w)
		picked[pick] = true
		out = append(out, pick)
		w[pick] = 0
	}
	sort.Ints(out)
	return out
}

// sampleAffinitySubset draws a k-pool candidate subset clustered around
// a weighted-random anchor pool's affinity group.
func sampleAffinitySubset(r *stats.RNG, weights []float64, groupOf []int, groups [][]int, strength float64, k int) []int {
	anchor := r.PickWeighted(weights)
	group := groups[groupOf[anchor]]

	w := append([]float64(nil), weights...)
	picked := make([]bool, len(w))
	out := []int{anchor}
	picked[anchor] = true
	w[anchor] = 0

	inGroupWeight := func() float64 {
		var t float64
		for _, p := range group {
			t += w[p]
		}
		return t
	}
	for len(out) < k && len(out) < len(w) {
		// Prefer the anchor's group while it has unpicked weight.
		if r.Bool(strength) && inGroupWeight() > 0 {
			gw := make([]float64, len(group))
			for i, p := range group {
				gw[i] = w[p]
			}
			pick := group[r.PickWeighted(gw)]
			picked[pick] = true
			out = append(out, pick)
			w[pick] = 0
			continue
		}
		var total float64
		for _, x := range w {
			total += x
		}
		if total <= 0 {
			for p := range w {
				if !picked[p] && len(out) < k {
					picked[p] = true
					out = append(out, p)
				}
			}
			break
		}
		pick := r.PickWeighted(w)
		picked[pick] = true
		out = append(out, pick)
		w[pick] = 0
	}
	sort.Ints(out)
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
