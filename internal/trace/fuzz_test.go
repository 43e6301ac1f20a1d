package trace

import (
	"encoding/json"
	"testing"
)

// FuzzGeneratorConfig guards the generator's untrusted-input surface:
// arbitrary JSON is decoded into a GeneratorConfig and validated, and
// every configuration Validate accepts must generate a well-formed
// trace (Generate re-validates its own output) without panicking —
// Validate is the single gate between external config files and the
// kernel. Expensive configurations (huge horizons, rates or pool
// counts) are skipped after validation so the fuzzer explores the
// validation logic, not the generator's throughput.
func FuzzGeneratorConfig(f *testing.F) {
	// Seed corpus: the real presets plus targeted mutations.
	for _, cfg := range []GeneratorConfig{
		WeekNormal(1),
		HighSuspension(2),
		MultiSiteWeek(3, 3),
		YearLong(4, 0.1),
	} {
		if b, err := json.Marshal(cfg); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"horizon":100,"num_pools":2,"low_rate":0.5,` +
		`"mem_classes_mb":[1024],"mem_weights":[1],"cores_classes":[1],"cores_weights":[1]}`))
	f.Add([]byte(`{"horizon":100,"num_pools":2,"cores_classes":[0],"cores_weights":[-1]}`))
	f.Add([]byte(`{"horizon":50,"num_pools":4,"low_rate":1,"subset_size":2,` +
		`"site_pools":[[0,1],[2,3]],"site_local_fraction":0.5,` +
		`"mem_classes_mb":[512],"mem_weights":[1],"cores_classes":[1],"cores_weights":[1]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg GeneratorConfig
		if err := json.Unmarshal(data, &cfg); err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			return // rejection is a valid outcome; it must just not panic
		}
		// Bound the work a validated config may demand before generating.
		if !fuzzTraceBounded(cfg) {
			return
		}
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Validate accepted a config Generate rejects: %v", err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("generated trace invalid: %v", err)
		}
		for i := range tr.Jobs {
			s := &tr.Jobs[i]
			if s.Submit < 0 || s.Submit >= cfg.Horizon {
				t.Fatalf("job %d submitted at %v outside [0,%v)", s.ID, s.Submit, cfg.Horizon)
			}
			if len(cfg.SitePools) > 0 && s.Site >= len(cfg.SitePools) {
				t.Fatalf("job %d at site %d of %d", s.ID, s.Site, len(cfg.SitePools))
			}
			for _, c := range s.Candidates {
				if c < 0 || c >= cfg.NumPools {
					t.Fatalf("job %d candidate pool %d outside [0,%d)", s.ID, c, cfg.NumPools)
				}
			}
		}
	})
}

// fuzzTraceBounded reports whether a validated config is cheap enough
// to generate inside a fuzz iteration: short horizons, few pools and
// at most ~20,000 expected jobs.
func fuzzTraceBounded(cfg GeneratorConfig) bool {
	if cfg.Horizon > 2000 || cfg.NumPools > 32 {
		return false
	}
	jobs := cfg.LowRate * (1 + cfg.DiurnalAmplitude) * cfg.Horizon
	for _, b := range cfg.Bursts {
		jobs += b.Rate * b.Duration
	}
	if cfg.Auto != nil {
		jobs += cfg.Auto.Rate * cfg.Horizon
	}
	return jobs <= 20000
}
