package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"netbatch/internal/job"
	"netbatch/internal/stats"
)

func smallConfig(seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Seed:             seed,
		Horizon:          2000,
		NumPools:         4,
		OwnedPools:       []int{0, 1},
		LowRate:          2,
		DiurnalAmplitude: 0.3,
		LowWork:          WorkDist{Median: 50, Sigma: 1.0},
		HighWork:         WorkDist{Median: 30, Sigma: 0.8},
		MemClassesMB:     []int{1024, 4096},
		MemWeights:       []float64{0.7, 0.3},
		CoresClasses:     []int{1, 2},
		CoresWeights:     []float64{0.9, 0.1},
		Bursts:           []Burst{{Start: 500, Duration: 300, Rate: 5}},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		x, y := a.Jobs[i], b.Jobs[i]
		if x.Submit != y.Submit || x.Work != y.Work || x.Priority != y.Priority {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
}

func TestGenerateDifferentSeeds(t *testing.T) {
	a, _ := Generate(smallConfig(1))
	b, _ := Generate(smallConfig(2))
	if len(a.Jobs) == len(b.Jobs) {
		same := true
		for i := range a.Jobs {
			if a.Jobs[i].Submit != b.Jobs[i].Submit {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateTraceIsValid(t *testing.T) {
	tr, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) == 0 {
		t.Fatal("empty trace")
	}
}

func TestGenerateArrivalRate(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Bursts = nil
	cfg.DiurnalAmplitude = 0
	cfg.Horizon = 50000
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(len(tr.Jobs)) / cfg.Horizon
	if math.Abs(rate-cfg.LowRate)/cfg.LowRate > 0.05 {
		t.Fatalf("arrival rate = %v, want ~%v", rate, cfg.LowRate)
	}
}

func TestGenerateBurstShape(t *testing.T) {
	tr, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	var inBurst, outBurst int
	for _, s := range tr.Jobs {
		if s.Priority != job.PriorityHigh {
			continue
		}
		if s.Submit >= 500 && s.Submit < 800 {
			inBurst++
		} else {
			outBurst++
		}
		// Burst jobs default to owned pools.
		if len(s.Candidates) != 2 || s.Candidates[0] != 0 || s.Candidates[1] != 1 {
			t.Fatalf("high-priority candidates = %v, want owned pools", s.Candidates)
		}
	}
	if outBurst != 0 {
		t.Fatalf("%d high-priority jobs outside burst window", outBurst)
	}
	// ~5/min for 300 min ≈ 1500 jobs.
	if inBurst < 1200 || inBurst > 1800 {
		t.Fatalf("burst job count = %d, want ~1500", inBurst)
	}
}

func TestGenerateLowJobsCanRunAnywhere(t *testing.T) {
	tr, err := Generate(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Jobs {
		if s.Priority == job.PriorityLow && len(s.Candidates) != 4 {
			t.Fatalf("low-priority job candidates = %v, want all 4 pools", s.Candidates)
		}
	}
}

func TestGenerateExplicitBurstPools(t *testing.T) {
	cfg := smallConfig(13)
	cfg.Bursts = []Burst{{Start: 100, Duration: 100, Rate: 3, Pools: []int{2, 3}}}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Jobs {
		if s.Priority == job.PriorityHigh {
			if len(s.Candidates) != 2 || s.Candidates[0] != 2 || s.Candidates[1] != 3 {
				t.Fatalf("burst candidates = %v, want [2 3]", s.Candidates)
			}
		}
	}
}

func TestGenerateTasks(t *testing.T) {
	cfg := smallConfig(17)
	cfg.TaskFraction = 0.5
	cfg.TaskMeanSize = 4
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	taskSizes := map[int64]int{}
	var tasked int
	for _, s := range tr.Jobs {
		if s.TaskID != 0 {
			if s.Priority != job.PriorityLow {
				t.Fatal("high-priority job assigned to a task")
			}
			taskSizes[s.TaskID]++
			tasked++
		}
	}
	if len(taskSizes) == 0 {
		t.Fatal("no tasks formed")
	}
	for id, size := range taskSizes {
		if size < 1 || size > 64 {
			t.Fatalf("task %d has unreasonable size %d", id, size)
		}
	}
	if frac := float64(tasked) / float64(len(tr.Jobs)); frac < 0.2 {
		t.Fatalf("tasked fraction = %v, want substantial", frac)
	}
}

func TestGenerateValidationErrors(t *testing.T) {
	mutations := map[string]func(*GeneratorConfig){
		"zeroHorizon":   func(c *GeneratorConfig) { c.Horizon = 0 },
		"zeroPools":     func(c *GeneratorConfig) { c.NumPools = 0 },
		"negRate":       func(c *GeneratorConfig) { c.LowRate = -1 },
		"badAmp":        func(c *GeneratorConfig) { c.DiurnalAmplitude = 1.5 },
		"memMismatch":   func(c *GeneratorConfig) { c.MemWeights = []float64{1} },
		"coresMismatch": func(c *GeneratorConfig) { c.CoresWeights = []float64{1} },
		"badTaskFrac":   func(c *GeneratorConfig) { c.TaskFraction = 2 },
		"badOwned":      func(c *GeneratorConfig) { c.OwnedPools = []int{99} },
		"badBurst":      func(c *GeneratorConfig) { c.Bursts[0].Rate = 0 },
		"badBurstPool":  func(c *GeneratorConfig) { c.Bursts[0].Pools = []int{77} },
		// A repeated pool became a duplicate candidate of every burst
		// job, and Generate failed on its own output.
		"dupOwned":     func(c *GeneratorConfig) { c.OwnedPools = []int{1, 0, 1} },
		"dupBurstPool": func(c *GeneratorConfig) { c.Bursts[0].Pools = []int{2, 3, 2} },
		"orphanBurst": func(c *GeneratorConfig) {
			c.OwnedPools = nil
			c.Bursts[0].Pools = nil
		},
		"badWork": func(c *GeneratorConfig) { c.LowWork.Median = 0 },
		"badTail": func(c *GeneratorConfig) { c.LowWork = WorkDist{Median: 1, TailFrac: 0.5} },
		"badAuto": func(c *GeneratorConfig) {
			c.Auto = &AutoBursts{MeanGap: 0, MeanDuration: 1, Rate: 1, PoolsPerBurst: 1}
		},
		"autoTooManyPools": func(c *GeneratorConfig) {
			c.Auto = &AutoBursts{MeanGap: 1, MeanDuration: 1, Rate: 1, PoolsPerBurst: 10}
		},
		// Without sites or affinity groups nothing else bounds the pool
		// count, and Generate died allocating its per-pool tables.
		"hugePoolCount": func(c *GeneratorConfig) { c.NumPools = 1 << 40 },
		// A pool count far beyond what the sites or affinity groups
		// list fails their coverage check without a set that large.
		"hugePoolCountSites": func(c *GeneratorConfig) {
			c.NumPools = MaxPools
			c.SitePools = [][]int{{0, 1}, {2, 3}}
		},
		"hugePoolCountAffinity": func(c *GeneratorConfig) {
			c.NumPools = MaxPools
			c.AffinityGroups = [][]int{{0, 1}, {2, 3}}
		},
		// Every pool owned at weight 0: an affinity anchor had nothing
		// to draw from, and PickWeighted panicked.
		"affinityWithoutWeight": func(c *GeneratorConfig) {
			c.OwnedPools = []int{3, 1, 0, 2}
			c.OwnedWeight = 0
			c.SubsetSize = 2
			c.AffinityGroups = [][]int{{0, 1}, {2, 3}}
			c.AffinityStrength = 0.5
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(1)
			mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
	// The pool count is bounded at MaxPools, inclusive.
	cfg := smallConfig(1)
	cfg.NumPools = MaxPools
	if err := cfg.Validate(); err != nil {
		t.Fatalf("MaxPools pools: %v", err)
	}
	cfg.NumPools++
	if err := cfg.Validate(); err == nil {
		t.Fatal("MaxPools+1 pools: want error")
	}
	// Non-finite values in every kind of float field must fail
	// validation by name. Unchecked, a NaN rate passes the ordered
	// checks and never advances the arrival clock, and an infinite one
	// makes the mean arrival gap 0; so these rows call Validate, which
	// Generate runs first, rather than risk a generation that never ends.
	nan, inf := math.NaN(), math.Inf(1)
	for _, v := range []struct {
		name string
		x    float64
	}{{"NaN", nan}, {"+Inf", inf}, {"-Inf", -inf}} {
		x := v.x
		for field, set := range map[string]func(*GeneratorConfig){
			"rate":         func(c *GeneratorConfig) { c.LowRate = x },
			"horizon":      func(c *GeneratorConfig) { c.Horizon = x },
			"amp":          func(c *GeneratorConfig) { c.DiurnalAmplitude = x },
			"taskMeanSize": func(c *GeneratorConfig) { c.TaskMeanSize = x },
			"memWeight":    func(c *GeneratorConfig) { c.MemWeights = []float64{x, 1} },
			"burstRate":    func(c *GeneratorConfig) { c.Bursts = []Burst{{Start: 1, Duration: 1, Rate: x}} },
			"burstStart":   func(c *GeneratorConfig) { c.Bursts = []Burst{{Start: x, Duration: 1, Rate: 1}} },
			"workMedian":   func(c *GeneratorConfig) { c.LowWork.Median = x },
			"workCap":      func(c *GeneratorConfig) { c.HighWork.Cap = x },
			"autoMaxDur": func(c *GeneratorConfig) {
				c.Auto = &AutoBursts{MeanGap: 1, MeanDuration: 1, MaxDuration: x, Rate: 1, PoolsPerBurst: 1}
			},
		} {
			t.Run(field+" "+v.name, func(t *testing.T) {
				cfg := smallConfig(1)
				set(&cfg)
				if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
					t.Fatalf("got %v, want a non-finite-value error", err)
				}
			})
		}
	}
}

func TestWorkDistSample(t *testing.T) {
	r := stats.NewRNG(21)
	d := WorkDist{Median: 100, Sigma: 1.2, TailFrac: 0.02, TailMin: 1500, TailAlpha: 1.3, Cap: 50000}
	var m stats.Mean
	tail := 0
	for i := 0; i < 100000; i++ {
		v := d.Sample(r)
		if v < 1 {
			t.Fatalf("sample %v below 1-minute floor", v)
		}
		if v > 50000 {
			t.Fatalf("sample %v above cap", v)
		}
		if v >= 1500 {
			tail++
		}
		m.Add(v)
	}
	// Mean should be in the rough vicinity of the analytic estimate.
	if est := d.Mean(); m.Mean() < est*0.5 || m.Mean() > est*1.5 {
		t.Fatalf("sample mean %v far from analytic %v", m.Mean(), est)
	}
	if tail == 0 {
		t.Fatal("no tail samples")
	}
}

// TestWorkDistSampleFinite: uncapped distributions whose extreme draws
// overflow still yield finite demands, so a config Validate accepts
// generates a trace Spec.Validate accepts.
func TestWorkDistSampleFinite(t *testing.T) {
	r := stats.NewRNG(5)
	for _, d := range []WorkDist{
		{Median: 100, Sigma: 1000},
		{Median: 1, TailFrac: 1, TailMin: 10, TailAlpha: 0.001},
	} {
		overflowed := false
		for i := 0; i < 1000; i++ {
			v := d.Sample(r)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
				t.Fatalf("%+v: sample %v", d, v)
			}
			overflowed = overflowed || v == math.MaxFloat64
		}
		if !overflowed {
			t.Fatalf("%+v: no draw reached the overflow clamp", d)
		}
	}
	cfg := smallConfig(3)
	cfg.LowWork = WorkDist{Median: 100, Sigma: 1000}
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAutoBurstsGeneration(t *testing.T) {
	cfg := smallConfig(23)
	cfg.Bursts = nil
	cfg.Horizon = 100000
	cfg.Auto = &AutoBursts{MeanGap: 5000, MeanDuration: 500, MaxDuration: 2000, Rate: 3, PoolsPerBurst: 2}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	high := tr.CountByPriority()[job.PriorityHigh]
	if high == 0 {
		t.Fatal("auto bursts produced no high-priority jobs")
	}
	// Expect roughly horizon/(gap+dur) bursts * rate * dur jobs.
	approx := 100000.0 / 5500 * 3 * 500
	if float64(high) < approx*0.3 || float64(high) > approx*3 {
		t.Fatalf("high-priority count = %d, want vaguely ~%v", high, approx)
	}
}

func TestPresetsAreValid(t *testing.T) {
	for name, cfg := range map[string]GeneratorConfig{
		"WeekNormal":     WeekNormal(1),
		"HighSuspension": HighSuspension(1),
		"YearLong":       YearLong(1, 0.1),
	} {
		t.Run(name, func(t *testing.T) {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWeekNormalShape(t *testing.T) {
	tr, err := Generate(WeekNormal(42))
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Jobs)
	// The paper's week window has 248k jobs; ours should be the same
	// order of magnitude (low base + bursts).
	if n < 150000 || n > 500000 {
		t.Fatalf("week trace job count = %d, want 150k-500k", n)
	}
	counts := tr.CountByPriority()
	if counts[job.PriorityHigh] == 0 {
		t.Fatal("no high-priority jobs in busy week")
	}
	frac := float64(counts[job.PriorityHigh]) / float64(n)
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("high-priority fraction = %v", frac)
	}
	// Offered load on the default 19,200-core platform should sit in
	// the paper's 20-60%% utilization band.
	util := tr.OfferedUtilization(19200)
	if util < 0.2 || util > 0.7 {
		t.Fatalf("offered utilization = %v, want in the paper's band", util)
	}
}

// specDigest hashes every field of every spec in trace order: integers
// as little-endian words, floats by their bits, the OS string and the
// candidate list length-prefixed.
func specDigest(tr *Trace) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range tr.Jobs {
		s := &tr.Jobs[i]
		word(uint64(s.ID))
		word(math.Float64bits(s.Submit))
		word(math.Float64bits(s.Work))
		word(uint64(s.Cores))
		word(uint64(s.MemMB))
		word(uint64(len(s.OS)))
		h.Write([]byte(s.OS))
		word(uint64(s.Priority))
		word(uint64(len(s.Candidates)))
		for _, c := range s.Candidates {
			word(uint64(c))
		}
		word(uint64(s.Site))
		word(uint64(s.TaskID))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPresetTracesPinned pins every preset's trace, at small scales and
// seeds 42 and 7, to a digest of all its spec fields. A change to any
// stream's draw order, to the sampling arithmetic or to the merge order
// changes a digest and fails here by preset and seed.
func TestPresetTracesPinned(t *testing.T) {
	presets := []struct {
		name string
		cfg  func(seed uint64) GeneratorConfig
	}{
		{"WeekNormal", func(s uint64) GeneratorConfig { return ScaleRates(WeekNormal(s), 0.02) }},
		{"HighSuspension", func(s uint64) GeneratorConfig { return ScaleRates(HighSuspension(s), 0.02) }},
		{"MultiSiteWeek", func(s uint64) GeneratorConfig { return ScaleRates(MultiSiteWeek(s, 3), 0.02) }},
		{"FaultyMultiSiteWeek", func(s uint64) GeneratorConfig { return ScaleRates(FaultyMultiSiteWeek(s, 3), 0.02) }},
		{"MultiSiteYear", func(s uint64) GeneratorConfig { return ScaleRates(MultiSiteYear(s, 6), 0.002) }},
		{"YearLong", func(s uint64) GeneratorConfig { return YearLong(s, 0.004) }},
	}
	// Computed with the single-pass generator that generateReference
	// preserves.
	want := map[string]string{
		"WeekNormal/seed42":          "c316bf606873a605e801f79d289190cb73acd6f4cb6db2a08c4baeecd66b594d",
		"WeekNormal/seed7":           "35d9ce342925571e92b0f877428692bdb7e95acadaeb7325c7a54664d32f5c20",
		"HighSuspension/seed42":      "0689e2c3414c25558c20f985ab0186982f91f5b3e81b50c943ac2df70fc7f566",
		"HighSuspension/seed7":       "783745fe6a51fa5bb35fe293a7476c8ffea4d9db28043f5741ae52927629f33b",
		"MultiSiteWeek/seed42":       "67aebfc35ada7830fcb4f333acf8a69cfd58e4e0e60cf056edbae37479703d4b",
		"MultiSiteWeek/seed7":        "0bdd7b1583debfef4ee2b52193bfe3f737670408cd1db2540ea429a00f00b9b9",
		"FaultyMultiSiteWeek/seed42": "b29e88ace1d931b59a49db072815ca5b3d9a7ad3a9cd00d6178a8a3df90b862f",
		"FaultyMultiSiteWeek/seed7":  "0e1938fec2c2b5d39b5d2c2447ae24071ed270247c385af82b82f692cf9b8e49",
		"MultiSiteYear/seed42":       "54d3506459c63fe7383d10fa73d25ff565295e20ed205da7c68649ff12944bc5",
		"MultiSiteYear/seed7":        "ef121c0932f9ae71a384ed2e16735ea51b3c872a79df7c071813777b6d4727a7",
		"YearLong/seed42":            "2a16cca05be488749c5918cc96511918a0a20794ad363ea5cc03108f142b77d0",
		"YearLong/seed7":             "495a5c33879706714f638c6cec38cb42df8e117589270c5f7728e297f51e67fc",
	}
	for _, p := range presets {
		for _, seed := range []uint64{42, 7} {
			name := fmt.Sprintf("%s/seed%d", p.name, seed)
			t.Run(name, func(t *testing.T) {
				tr, err := Generate(p.cfg(seed))
				if err != nil {
					t.Fatal(err)
				}
				if got := specDigest(tr); got != want[name] {
					t.Errorf("%d jobs, digest %s, want %s", len(tr.Jobs), got, want[name])
				}
				if cap(tr.Jobs) != len(tr.Jobs) {
					t.Errorf("cap(Jobs) = %d, len = %d; the trace is sized exactly", cap(tr.Jobs), len(tr.Jobs))
				}
			})
		}
	}
}

// Validate allocates the same on every call, whatever the GC has done
// since the last one. Formatting a label per burst drew fmt's printers
// from a sync.Pool that GC empties, so the trace/week bench cell read
// 85 or 86 allocs/op on unchanged code.
func TestValidateAllocsIndependentOfGC(t *testing.T) {
	cfg := WeekNormal(42)
	// MemStats counts every goroutine's mallocs, and finalizers run
	// after a collection can allocate during a call. Such noise only
	// adds, so each count is the least of a few calls.
	mallocs := func(gc bool) uint64 {
		least := uint64(math.MaxUint64)
		for range 5 {
			if gc {
				// Two collections empty a sync.Pool: the first moves
				// its items to the victim cache, the second drops them.
				runtime.GC()
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	if warm, cold := mallocs(false), mallocs(true); cold != warm {
		t.Fatalf("Validate made %d mallocs warm, %d after a GC", warm, cold)
	}
}
