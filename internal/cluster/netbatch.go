package cluster

import (
	"fmt"
	"math"
)

// NetBatchConfig parameterizes the default 20-pool platform used
// throughout the reproduction. The paper configures its simulator "to
// emulate 20 physical pools, each of which contains hundreds to tens of
// thousands of machines with varying CPU speed and memory" (§3.1).
//
// Pool size heterogeneity is load-bearing: the Table 3 observation that
// utilization-based initial scheduling raises the suspend rate depends
// on large pools attracting work and then being hit by pool-restricted
// high-priority bursts.
type NetBatchConfig struct {
	// BigPools, MediumPools, SmallPools are the pool counts per size
	// class. Their sum is the platform's pool count.
	BigPools    int `json:"big_pools"`
	MediumPools int `json:"medium_pools"`
	SmallPools  int `json:"small_pools"`
	// BigMachines, MediumMachines, SmallMachines are machines per pool
	// in each class (split across heterogeneous machine classes).
	BigMachines    int `json:"big_machines"`
	MediumMachines int `json:"medium_machines"`
	SmallMachines  int `json:"small_machines"`
	// CoresPerMachine is the core count of every machine.
	CoresPerMachine int `json:"cores_per_machine"`
	// Scale multiplies every machine count (for the scaled-down
	// year-long figure runs). 1.0 = full size. The high-load scenario
	// instead uses ScaleCapacity on the built platform.
	Scale float64 `json:"scale"`
}

// DefaultNetBatchConfig returns the platform used by the paper-scale
// experiments: 20 pools (4 big, 8 medium, 8 small), ~19k cores.
func DefaultNetBatchConfig() NetBatchConfig {
	return NetBatchConfig{
		BigPools:        4,
		MediumPools:     8,
		SmallPools:      8,
		BigMachines:     600,
		MediumMachines:  225,
		SmallMachines:   75,
		CoresPerMachine: 4,
		Scale:           1.0,
	}
}

// NewNetBatchPlatform builds the default heterogeneous 20-pool platform
// as a one-site federation ("site-A"): every pool mixes the standard
// machine classes (standardClasses) and is named after its site and
// size class, e.g. "site-A-big-00".
func NewNetBatchPlatform(cfg NetBatchConfig) (*Platform, error) {
	return NewFederationPlatform(FederationConfig{Regions: []string{"site-A"}, PerSite: cfg})
}

// standardClasses splits a pool's machine count into the standard
// heterogeneous mix: 30% slow/8GB, 50% reference/16GB, 20% fast/32GB
// ("varying CPU speed and memory", §3.1).
func standardClasses(machines int, cfg NetBatchConfig) []MachineClass {
	n := int(math.Round(float64(machines) * cfg.Scale))
	if n < 3 {
		n = 3 // keep all three machine classes present
	}
	slow := n * 30 / 100
	fast := n * 20 / 100
	ref := n - slow - fast
	return []MachineClass{
		{Count: max(slow, 1), Cores: cfg.CoresPerMachine, MemMB: 8 << 10, Speed: 0.8},
		{Count: max(ref, 1), Cores: cfg.CoresPerMachine, MemMB: 16 << 10, Speed: 1.0},
		{Count: max(fast, 1), Cores: cfg.CoresPerMachine, MemMB: 32 << 10, Speed: 1.25},
	}
}

// checkFactor rejects a multiplicative factor that is non-finite or not
// positive. Machine counts round from count × factor, and the rounding
// of NaN or ±Inf is no count at all.
func checkFactor(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("cluster: non-finite %s %v", what, v)
	}
	if v <= 0 {
		return fmt.Errorf("cluster: non-positive %s %v", what, v)
	}
	return nil
}

// ScaleCapacity returns a new platform with every pool's machine count
// multiplied by factor (at least one machine per pool is kept). The
// paper's high-load scenario "reduce[s] the number of compute cores
// available to each pool by half while keeping the submitted job trace
// unchanged" (§3.2.1); ScaleCapacity(0.5) reproduces that.
func (p *Platform) ScaleCapacity(factor float64) (*Platform, error) {
	if err := checkFactor("capacity factor", factor); err != nil {
		return nil, err
	}
	scaled := &Platform{}
	for _, pool := range p.pools {
		newPool := Pool{ID: pool.ID, Name: pool.Name, Site: pool.Site}
		// Scale each machine class separately, keeping at least one
		// machine per class so no capability (e.g. the only
		// high-memory machines) disappears from the pool.
		type classKey struct {
			cores int
			memMB int
			speed float64
			os    string
		}
		byClass := make(map[classKey][]int)
		var order []classKey
		for _, mid := range pool.Machines {
			m := p.machines[mid]
			key := classKey{m.Cores, m.MemMB, m.Speed, m.OS}
			if _, ok := byClass[key]; !ok {
				order = append(order, key)
			}
			byClass[key] = append(byClass[key], mid)
		}
		for _, key := range order {
			ids := byClass[key]
			keep := int(math.Round(float64(len(ids)) * factor))
			if keep < 1 {
				keep = 1
			}
			if keep > len(ids) {
				keep = len(ids)
			}
			for i := 0; i < keep; i++ {
				src := p.machines[ids[i]]
				id := len(scaled.machines)
				src.ID = id
				src.Pool = newPool.ID
				scaled.machines = append(scaled.machines, src)
				newPool.Machines = append(newPool.Machines, id)
				newPool.Cores += src.Cores
			}
		}
		scaled.pools = append(scaled.pools, newPool)
	}
	scaled.buildSites()
	scaled.rtt = p.rtt
	return scaled, nil
}
