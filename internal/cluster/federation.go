package cluster

import "fmt"

// This file builds multi-site federations: the production NetBatch
// deployment runs "hundreds of machine clusters called pools,
// distributed globally at dozens of data centers" (§1), while the
// paper's evaluation emulates a single large site (§3.1). A federation
// replicates a per-site pool layout across N regions and attaches an
// inter-site delay matrix used by the simulator for cross-site dispatch
// delay and utilization-view ageing.

// FederationConfig parameterizes a multi-site platform.
type FederationConfig struct {
	// Regions are the site labels, one per site.
	Regions []string `json:"regions"`
	// PerSite is the pool layout replicated at every site.
	PerSite NetBatchConfig `json:"per_site"`
	// RTT is the inter-site one-way delay matrix in simulated minutes
	// (len(Regions) square, zero diagonal). Nil means zero delays.
	RTT [][]float64 `json:"rtt,omitempty"`
}

// SiteNetBatchConfig returns the per-site pool layout used by the
// multi-site scenarios: 7 pools (1 big, 3 medium, 3 small), 1500
// machines, 6000 cores — so a 3-site federation is capacity-comparable
// to the paper's single 20-pool site (~19k cores).
func SiteNetBatchConfig() NetBatchConfig {
	return NetBatchConfig{
		BigPools:        1,
		MediumPools:     3,
		SmallPools:      3,
		BigMachines:     600,
		MediumMachines:  225,
		SmallMachines:   75,
		CoresPerMachine: 4,
		Scale:           1.0,
	}
}

// PoolsPerSite returns the pool count of one site built from cfg.
func (cfg NetBatchConfig) PoolsPerSite() int {
	return cfg.BigPools + cfg.MediumPools + cfg.SmallPools
}

// MetroRTT builds a distance-proportional delay matrix for n sites laid
// out on a line: rtt[a][b] = base + step*(|a-b|-1) for a != b. With
// base 2 and step 2 a 6-site federation spans 2–12 minutes of one-way
// delay, comparable to the paper's 30-minute staleness knob (§3.2.2).
func MetroRTT(n int, base, step float64) [][]float64 {
	m := make([][]float64, n)
	for a := range m {
		m[a] = make([]float64, n)
		for b := range m[a] {
			if a == b {
				continue
			}
			dist := a - b
			if dist < 0 {
				dist = -dist
			}
			m[a][b] = base + step*float64(dist-1)
		}
	}
	return m
}

// NewFederationPlatform replicates cfg.PerSite across cfg.Regions and
// attaches cfg.RTT. Pool IDs are site-major: site s owns pools
// [s*k, (s+1)*k) where k = cfg.PerSite.PoolsPerSite().
func NewFederationPlatform(cfg FederationConfig) (*Platform, error) {
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("cluster: federation has no regions")
	}
	seen := make(map[string]bool, len(cfg.Regions))
	var configs []PoolConfig
	for _, region := range cfg.Regions {
		if region == "" {
			return nil, fmt.Errorf("cluster: federation region label is empty")
		}
		if seen[region] {
			return nil, fmt.Errorf("cluster: duplicate federation region %q", region)
		}
		seen[region] = true
		site, err := sitePoolConfigs(cfg.PerSite, region)
		if err != nil {
			return nil, err
		}
		configs = append(configs, site...)
	}
	plat, err := Build(configs)
	if err != nil {
		return nil, err
	}
	if cfg.RTT == nil {
		return plat, nil
	}
	return plat.WithRTT(cfg.RTT)
}

// sitePoolConfigs lays out one site's pools with the standard three
// machine classes (30% slow/8GB, 50% reference/16GB, 20% fast/32GB).
func sitePoolConfigs(cfg NetBatchConfig, region string) ([]PoolConfig, error) {
	if err := checkFactor("scale", cfg.Scale); err != nil {
		return nil, err
	}
	if cfg.PoolsPerSite() <= 0 {
		return nil, fmt.Errorf("cluster: no pools in per-site config")
	}
	var out []PoolConfig
	add := func(count, machines int, label string) {
		for i := 0; i < count; i++ {
			out = append(out, PoolConfig{
				Name:    fmt.Sprintf("%s-%s-%02d", region, label, i),
				Site:    region,
				Classes: standardClasses(machines, cfg),
			})
		}
	}
	add(cfg.BigPools, cfg.BigMachines, "big")
	add(cfg.MediumPools, cfg.MediumMachines, "med")
	add(cfg.SmallPools, cfg.SmallMachines, "small")
	return out, nil
}
