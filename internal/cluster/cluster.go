// Package cluster models the static NetBatch platform: heterogeneous
// multi-core machines grouped into physical pools, grouped into sites.
// The paper's deployment is "hundreds of machine clusters called pools,
// distributed globally at dozens of data centers, utilizing tens of
// thousands of heterogeneous multi-core compute machines" (§1); its
// evaluation emulates one large site with 20 physical pools (§3.1).
//
// The package holds only static configuration. Dynamic state (which jobs
// run where, free cores, utilization) belongs to the simulator.
package cluster

import (
	"fmt"
	"math"
)

// Machine is one compute host.
type Machine struct {
	// ID is the machine's global index within the platform.
	ID int `json:"id"`
	// Pool is the physical pool the machine belongs to.
	Pool int `json:"pool"`
	// Cores is the number of job slots.
	Cores int `json:"cores"`
	// MemMB is the machine's memory capacity in megabytes.
	MemMB int `json:"mem_mb"`
	// Speed is the relative execution speed (1.0 = reference). A job
	// with service demand W minutes finishes in W/Speed wall minutes.
	Speed float64 `json:"speed"`
	// OS is the machine's operating system label.
	OS string `json:"os"`
}

// MachineClass describes a homogeneous group of machines inside a pool,
// used by pool builders.
type MachineClass struct {
	// Count is the number of machines of this class.
	Count int `json:"count"`
	// Cores per machine.
	Cores int `json:"cores"`
	// MemMB per machine.
	MemMB int `json:"mem_mb"`
	// Speed factor per machine.
	Speed float64 `json:"speed"`
	// OS label; defaults to "linux" if empty.
	OS string `json:"os,omitempty"`
}

// PoolConfig describes one physical pool to build.
type PoolConfig struct {
	// Name is a human-readable pool label.
	Name string `json:"name"`
	// Site is the data-center site the pool lives at.
	Site string `json:"site"`
	// Classes are the machine groups making up the pool.
	Classes []MachineClass `json:"classes"`
}

// Pool is one physical pool: a named set of machines at a site.
type Pool struct {
	// ID is the pool's index within the platform.
	ID int `json:"id"`
	// Name is the pool's label.
	Name string `json:"name"`
	// Site is the pool's data-center site.
	Site string `json:"site"`
	// Machines holds the global machine IDs belonging to this pool.
	Machines []int `json:"machines"`
	// Cores is the pool's total core count (cached).
	Cores int `json:"cores"`
}

// Site is one data-center site of the federation: the pools located
// there plus cached capacity. The paper's deployment spreads pools
// "globally at dozens of data centers" (§1); sites are derived from the
// PoolConfig.Site labels in order of first appearance.
type Site struct {
	// ID is the site's index within the platform.
	ID int `json:"id"`
	// Region is the site's label (the PoolConfig.Site string).
	Region string `json:"region"`
	// Pools holds the pool IDs located at this site.
	Pools []int `json:"pools"`
	// Cores is the site's total core count (cached).
	Cores int `json:"cores"`
}

// Platform is an immutable description of the whole deployment.
type Platform struct {
	pools    []Pool
	machines []Machine

	sites  []Site
	siteOf []int // pool ID -> site ID
	// rtt is the inter-site state-propagation delay matrix in simulated
	// minutes (nil = all zero). The simulator works in minutes, so the
	// matrix models the full cross-site visibility/transfer pipeline
	// delay (cf. the paper's 30-minute utilization staleness, §3.2.2),
	// not the millisecond wire RTT alone.
	rtt [][]float64
}

// Build constructs a platform from pool configurations. Pool IDs are
// assigned in order; machine IDs are assigned in pool order.
func Build(configs []PoolConfig) (*Platform, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("cluster: no pools configured")
	}
	p := &Platform{}
	for poolID, cfg := range configs {
		pool := Pool{ID: poolID, Name: cfg.Name, Site: cfg.Site}
		if pool.Name == "" {
			pool.Name = fmt.Sprintf("pool-%02d", poolID)
		}
		if len(cfg.Classes) == 0 {
			return nil, fmt.Errorf("cluster: pool %q has no machine classes", pool.Name)
		}
		for ci, cls := range cfg.Classes {
			if cls.Count <= 0 {
				return nil, fmt.Errorf("cluster: pool %q class %d: non-positive count %d", pool.Name, ci, cls.Count)
			}
			if cls.Cores <= 0 {
				return nil, fmt.Errorf("cluster: pool %q class %d: non-positive cores %d", pool.Name, ci, cls.Cores)
			}
			if cls.MemMB <= 0 {
				return nil, fmt.Errorf("cluster: pool %q class %d: non-positive memory %d", pool.Name, ci, cls.MemMB)
			}
			if cls.Speed <= 0 {
				return nil, fmt.Errorf("cluster: pool %q class %d: non-positive speed %v", pool.Name, ci, cls.Speed)
			}
			osLabel := cls.OS
			if osLabel == "" {
				osLabel = "linux"
			}
			for i := 0; i < cls.Count; i++ {
				id := len(p.machines)
				p.machines = append(p.machines, Machine{
					ID:    id,
					Pool:  poolID,
					Cores: cls.Cores,
					MemMB: cls.MemMB,
					Speed: cls.Speed,
					OS:    osLabel,
				})
				pool.Machines = append(pool.Machines, id)
				pool.Cores += cls.Cores
			}
		}
		p.pools = append(p.pools, pool)
	}
	p.buildSites()
	return p, nil
}

// buildSites derives the site list from pool labels, in order of first
// appearance. An empty label is its own (default) site.
func (p *Platform) buildSites() {
	index := make(map[string]int)
	p.sites = nil
	p.siteOf = make([]int, len(p.pools))
	for i := range p.pools {
		pool := &p.pools[i]
		sid, ok := index[pool.Site]
		if !ok {
			sid = len(p.sites)
			index[pool.Site] = sid
			region := pool.Site
			if region == "" {
				region = "default"
			}
			p.sites = append(p.sites, Site{ID: sid, Region: region})
		}
		p.sites[sid].Pools = append(p.sites[sid].Pools, pool.ID)
		p.sites[sid].Cores += pool.Cores
		p.siteOf[pool.ID] = sid
	}
}

// WithRTT returns a platform sharing this one's pools and machines with
// the given inter-site delay matrix attached. The matrix must be
// NumSites×NumSites with a zero diagonal and finite, non-negative
// entries;
// entry [a][b] is the one-way dispatch/visibility delay from site a to
// site b in simulated minutes.
func (p *Platform) WithRTT(rtt [][]float64) (*Platform, error) {
	if len(rtt) != len(p.sites) {
		return nil, fmt.Errorf("cluster: rtt matrix has %d rows for %d sites", len(rtt), len(p.sites))
	}
	for a, row := range rtt {
		if len(row) != len(p.sites) {
			return nil, fmt.Errorf("cluster: rtt row %d has %d entries for %d sites", a, len(row), len(p.sites))
		}
		for b, d := range row {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("cluster: non-finite rtt %v between sites %d and %d", d, a, b)
			}
			if d < 0 {
				return nil, fmt.Errorf("cluster: negative rtt %v between sites %d and %d", d, a, b)
			}
			if a == b && d != 0 {
				return nil, fmt.Errorf("cluster: non-zero self-rtt %v at site %d", d, a)
			}
		}
	}
	out := *p
	out.rtt = rtt
	return &out, nil
}

// NumSites returns the number of data-center sites.
func (p *Platform) NumSites() int { return len(p.sites) }

// Site returns the site with the given ID. It panics on an out-of-range
// ID, which is a programmer error.
func (p *Platform) Site(id int) *Site { return &p.sites[id] }

// SiteOf returns the site ID of the given pool.
func (p *Platform) SiteOf(pool int) int { return p.siteOf[pool] }

// RTT returns the one-way inter-site delay from site a to site b in
// minutes (0 when no matrix is attached or a == b).
func (p *Platform) RTT(a, b int) float64 {
	if p.rtt == nil || a == b {
		return 0
	}
	return p.rtt[a][b]
}

// MaxRTT returns the largest inter-site delay, or 0.
func (p *Platform) MaxRTT() float64 {
	var m float64
	for _, row := range p.rtt {
		for _, d := range row {
			if d > m {
				m = d
			}
		}
	}
	return m
}

// NumPools returns the number of physical pools.
func (p *Platform) NumPools() int { return len(p.pools) }

// NumMachines returns the total machine count.
func (p *Platform) NumMachines() int { return len(p.machines) }

// Pool returns the pool with the given ID. It panics on an out-of-range
// ID, which is a programmer error.
func (p *Platform) Pool(id int) *Pool { return &p.pools[id] }

// Machine returns the machine with the given global ID. It panics on an
// out-of-range ID, which is a programmer error.
func (p *Platform) Machine(id int) *Machine { return &p.machines[id] }

// TotalCores returns the platform-wide core count.
func (p *Platform) TotalCores() int {
	total := 0
	for i := range p.pools {
		total += p.pools[i].Cores
	}
	return total
}

// PoolCores returns the core count of pool id.
func (p *Platform) PoolCores(id int) int { return p.pools[id].Cores }
