package trace

// This file preserves the single-pass trace generator that the
// arrival-pass generator in generator.go replaced: one loop that draws
// each job's arrival, placement, work and attributes together, appends
// it to a growing slice, copies the weight vector and a picked mask
// for every candidate subset, and stable-sorts the whole trace at the
// end. It is a test-only reference. FuzzGenerateMatchesReference runs
// both generators on the same configuration and demands identical
// traces, floats compared by bits.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"netbatch/internal/job"
	"netbatch/internal/stats"
)

// generateReference is the single-pass generator. It shares Validate,
// autoBursts and assignTasks with Generate.
func generateReference(cfg GeneratorConfig) (*Trace, error) {
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

	bursts := append([]Burst(nil), cfg.Bursts...)
	if cfg.Auto != nil {
		bursts = append(bursts, autoBursts(cfg, burstRNG)...)
	}
	for _, b := range bursts {
		pools := b.Pools
		if len(pools) == 0 {
			pools = cfg.OwnedPools
		}
		cand := append([]int(nil), pools...)
		sort.Ints(cand)
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

// diffTraces returns a description of the first field where got and
// want differ, or "" when they are identical. Floats compare by bits.
func diffTraces(want, got *Trace) string {
	if len(got.Jobs) != len(want.Jobs) {
		return fmt.Sprintf("job count %d, want %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		w, g := &want.Jobs[i], &got.Jobs[i]
		same := w.ID == g.ID &&
			math.Float64bits(w.Submit) == math.Float64bits(g.Submit) &&
			math.Float64bits(w.Work) == math.Float64bits(g.Work) &&
			w.Cores == g.Cores && w.MemMB == g.MemMB && w.OS == g.OS &&
			w.Priority == g.Priority && w.Site == g.Site && w.TaskID == g.TaskID &&
			len(w.Candidates) == len(g.Candidates)
		for c := 0; same && c < len(w.Candidates); c++ {
			same = w.Candidates[c] == g.Candidates[c]
		}
		if !same {
			return fmt.Sprintf("job %d:\nwant %+v\ngot  %+v", i, *w, *g)
		}
	}
	return ""
}

// fuzzSized compresses a preset into the fuzz budget: every time
// (horizon, bursts, auto-burst gaps and durations, diurnal period)
// shrinks to fit a 2,000-minute horizon and every arrival rate is
// multiplied by rate.
func fuzzSized(cfg GeneratorConfig, rate float64) GeneratorConfig {
	f := 2000 / cfg.Horizon
	cfg.Horizon = 2000
	cfg.DiurnalPeriod *= f
	cfg.LowRate *= rate
	bursts := append([]Burst(nil), cfg.Bursts...)
	for i := range bursts {
		bursts[i].Start *= f
		bursts[i].Duration *= f
		bursts[i].Rate *= rate
	}
	cfg.Bursts = bursts
	if cfg.Auto != nil {
		a := *cfg.Auto
		a.MeanGap *= f
		a.MeanDuration *= f
		a.MaxDuration *= f
		a.Rate *= rate
		cfg.Auto = &a
	}
	return cfg
}

// referenceSeedConfigs are the differential fuzz target's seeds: every
// preset compressed into the fuzz budget, plus degenerate shapes that
// reach the generator's rare paths.
func referenceSeedConfigs() map[string]GeneratorConfig {
	mem := []int{1024, 4096}
	memW := []float64{0.7, 0.3}
	cores := []int{1, 2}
	coresW := []float64{0.9, 0.1}
	tiny := func(seed uint64) GeneratorConfig {
		return GeneratorConfig{
			Seed: seed, Horizon: 1500, NumPools: 6, LowRate: 3,
			SubsetSize: 3, AllFraction: 0.1,
			LowWork:      WorkDist{Median: 50, Sigma: 1},
			HighWork:     WorkDist{Median: 30, Sigma: 0.8},
			MemClassesMB: mem, MemWeights: memW,
			CoresClasses: cores, CoresWeights: coresW,
			TaskFraction: 0.3, TaskMeanSize: 4,
		}
	}
	seeds := map[string]GeneratorConfig{
		"WeekNormal":          fuzzSized(WeekNormal(42), 0.1),
		"HighSuspension":      fuzzSized(HighSuspension(7), 0.1),
		"MultiSiteWeek":       fuzzSized(MultiSiteWeek(3, 3), 0.1),
		"FaultyMultiSiteWeek": fuzzSized(FaultyMultiSiteWeek(4, 2), 0.1),
		"MultiSiteYear":       fuzzSized(MultiSiteYear(5, 4), 0.1),
		"YearLong":            fuzzSized(YearLong(6, 0.1), 1),
	}
	// Owned weight 0: every owned pool has zero sampling weight, so a
	// draw whose positive-weight pools run out fills the rest in
	// pool-ID order. Site 0 is all owned, so its site-local draws take
	// the fill path at once; site 1's run out after two picks and fill
	// from pools outside the site.
	zero := tiny(11)
	zero.OwnedPools = []int{0, 1, 2, 3}
	zero.OwnedWeight = 0
	zero.SitePools = [][]int{{0, 1, 2}, {3, 4, 5}}
	zero.SiteLocalFraction = 0.5
	zero.Bursts = []Burst{{Start: 100, Duration: 400, Rate: 2}}
	seeds["ownedWeightZero"] = zero
	zeroAff := tiny(12)
	zeroAff.OwnedPools = []int{0, 1, 2}
	zeroAff.OwnedWeight = 0
	zeroAff.AffinityGroups = [][]int{{0, 1, 2, 3}, {4, 5}}
	zeroAff.AffinityStrength = 0.8
	zeroAff.SubsetSize = 5
	seeds["ownedWeightZeroAffinity"] = zeroAff
	// A subset size larger than a site's pool count: site 0's
	// site-local draws are capped at its single pool.
	small := tiny(13)
	small.SitePools = [][]int{{5}, {0, 1, 2, 3, 4}}
	small.SiteLocalFraction = 0.9
	small.SubsetSize = 4
	small.OwnedPools = []int{5}
	small.OwnedWeight = 0.3
	small.Bursts = []Burst{{Start: 200, Duration: 300, Rate: 4, Pools: []int{5}}}
	seeds["subsetExceedsSite"] = small
	// Bursts that produce no jobs: one starts past the horizon, one is
	// too slow to land an arrival, beside one that overlaps another.
	empty := tiny(14)
	empty.OwnedPools = []int{0, 1}
	empty.Bursts = []Burst{
		{Start: 5000, Duration: 100, Rate: 5},
		{Start: 10, Duration: 1, Rate: 1e-9},
		{Start: 300, Duration: 600, Rate: 3, Pools: []int{2}},
		{Start: 400, Duration: 200, Rate: 6, Pools: []int{3, 4}},
	}
	seeds["burstsWithoutJobs"] = empty
	noLow := tiny(15)
	noLow.LowRate = 0
	noLow.OwnedPools = []int{1, 4}
	noLow.Bursts = []Burst{{Start: 0, Duration: 900, Rate: 2}}
	seeds["burstsOnly"] = noLow
	return seeds
}

// FuzzGenerateMatchesReference holds Generate to the single-pass
// reference generator: every configuration Validate accepts within the
// fuzz budget must produce the same trace, field by field, and Generate
// must size its job slice exactly.
func FuzzGenerateMatchesReference(f *testing.F) {
	seeds := referenceSeedConfigs()
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, err := json.Marshal(seeds[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg GeneratorConfig
		if err := json.Unmarshal(data, &cfg); err != nil {
			return
		}
		if err := cfg.Validate(); err != nil || !fuzzTraceBounded(cfg) {
			return
		}
		want, err := generateReference(cfg)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		if d := diffTraces(want, got); d != "" {
			t.Fatalf("Generate differs from the reference: %s", d)
		}
		if cap(got.Jobs) != len(got.Jobs) {
			t.Fatalf("cap(Jobs) = %d, len = %d", cap(got.Jobs), len(got.Jobs))
		}
	})
}

// TestReferenceSeedsInBudget keeps the differential seeds meaningful:
// each must validate, fit the fuzz budget and produce jobs.
func TestReferenceSeedsInBudget(t *testing.T) {
	for name, cfg := range referenceSeedConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !fuzzTraceBounded(cfg) {
			t.Errorf("%s: outside the fuzz budget", name)
			continue
		}
		tr, err := generateReference(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if len(tr.Jobs) == 0 {
			t.Errorf("%s: no jobs", name)
		}
	}
}
