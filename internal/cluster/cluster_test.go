package cluster

import (
	"math"
	"strings"
	"testing"
)

func twoPoolConfig() []PoolConfig {
	return []PoolConfig{
		{
			Name: "alpha",
			Site: "site-A",
			Classes: []MachineClass{
				{Count: 2, Cores: 4, MemMB: 8192, Speed: 1.0},
				{Count: 1, Cores: 8, MemMB: 16384, Speed: 1.25, OS: "windows"},
			},
		},
		{
			Name: "beta",
			Site: "site-B",
			Classes: []MachineClass{
				{Count: 3, Cores: 2, MemMB: 4096, Speed: 0.8},
			},
		},
	}
}

func TestBuild(t *testing.T) {
	p, err := Build(twoPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPools() != 2 {
		t.Fatalf("NumPools = %d", p.NumPools())
	}
	if p.NumMachines() != 6 {
		t.Fatalf("NumMachines = %d", p.NumMachines())
	}
	if got := p.TotalCores(); got != 2*4+8+3*2 {
		t.Fatalf("TotalCores = %d", got)
	}
	alpha := p.Pool(0)
	if alpha.Name != "alpha" || alpha.Cores != 16 || len(alpha.Machines) != 3 {
		t.Fatalf("alpha = %+v", alpha)
	}
	// Machine IDs are global and dense.
	for i := 0; i < p.NumMachines(); i++ {
		m := p.Machine(i)
		if m.ID != i {
			t.Fatalf("machine %d has ID %d", i, m.ID)
		}
	}
	// Pool membership is consistent.
	for pid := range p.NumPools() {
		for _, mid := range p.Pool(pid).Machines {
			if p.Machine(mid).Pool != pid {
				t.Fatalf("machine %d claims pool %d, listed under %d", mid, p.Machine(mid).Pool, pid)
			}
		}
	}
	if got := p.PoolCores(1); got != 6 {
		t.Fatalf("PoolCores(1) = %d", got)
	}
}

func TestBuildDefaultsOSAndName(t *testing.T) {
	p, err := Build([]PoolConfig{{Classes: []MachineClass{{Count: 1, Cores: 1, MemMB: 1, Speed: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Machine(0).OS; got != "linux" {
		t.Fatalf("default OS = %q", got)
	}
	if got := p.Pool(0).Name; !strings.HasPrefix(got, "pool-") {
		t.Fatalf("default name = %q", got)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name    string
		configs []PoolConfig
	}{
		{"empty", nil},
		{"noClasses", []PoolConfig{{Name: "x"}}},
		{"zeroCount", []PoolConfig{{Classes: []MachineClass{{Count: 0, Cores: 1, MemMB: 1, Speed: 1}}}}},
		{"zeroCores", []PoolConfig{{Classes: []MachineClass{{Count: 1, Cores: 0, MemMB: 1, Speed: 1}}}}},
		{"zeroMem", []PoolConfig{{Classes: []MachineClass{{Count: 1, Cores: 1, MemMB: 0, Speed: 1}}}}},
		{"zeroSpeed", []PoolConfig{{Classes: []MachineClass{{Count: 1, Cores: 1, MemMB: 1, Speed: 0}}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Build(c.configs); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestNewNetBatchPlatformDefault(t *testing.T) {
	cfg := DefaultNetBatchConfig()
	p, err := NewNetBatchPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPools() != 20 {
		t.Fatalf("NumPools = %d, want 20 (paper §3.1)", p.NumPools())
	}
	// 4*600 + 8*225 + 8*75 machines, 4 cores each.
	wantMachines := 4*600 + 8*225 + 8*75
	if got := p.NumMachines(); got != wantMachines {
		t.Fatalf("NumMachines = %d, want %d", got, wantMachines)
	}
	if got := p.TotalCores(); got != wantMachines*4 {
		t.Fatalf("TotalCores = %d", got)
	}
	// Big pools come first and are the largest.
	big := p.PoolCores(0)
	small := p.PoolCores(19)
	if big <= small {
		t.Fatalf("big pool (%d cores) not larger than small (%d)", big, small)
	}
	for id := range cfg.BigPools {
		if !strings.HasPrefix(p.Pool(id).Name, "site-A-big-") {
			t.Fatalf("pool %d = %q, want site-A-big-*", id, p.Pool(id).Name)
		}
	}
	// Heterogeneity: all three speed classes present in pool 0.
	speeds := map[float64]bool{}
	for _, mid := range p.Pool(0).Machines {
		speeds[p.Machine(mid).Speed] = true
	}
	if len(speeds) != 3 {
		t.Fatalf("speed classes in pool 0 = %v, want 3", speeds)
	}
}

func TestNewNetBatchPlatformScaled(t *testing.T) {
	cfg := DefaultNetBatchConfig()
	cfg.Scale = 0.1
	p, err := NewNetBatchPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewNetBatchPlatform(DefaultNetBatchConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(p.TotalCores()) / float64(full.TotalCores())
	if math.Abs(ratio-0.1) > 0.02 {
		t.Fatalf("scaled core ratio = %v, want ~0.1", ratio)
	}
	if p.NumPools() != 20 {
		t.Fatalf("scaling changed pool count: %d", p.NumPools())
	}
}

func TestNewNetBatchPlatformErrors(t *testing.T) {
	cfg := DefaultNetBatchConfig()
	cfg.Scale = 0
	if _, err := NewNetBatchPlatform(cfg); err == nil {
		t.Fatal("zero scale should fail")
	}
	cfg = NetBatchConfig{Scale: 1}
	if _, err := NewNetBatchPlatform(cfg); err == nil {
		t.Fatal("no pools should fail")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultNetBatchConfig()
		cfg.Scale = v
		if _, err := NewNetBatchPlatform(cfg); err == nil || !strings.Contains(err.Error(), "non-finite scale") {
			t.Errorf("scale %v: got %v, want a non-finite scale error", v, err)
		}
	}
}

// TestScaleCapacityErrors pins ScaleCapacity's factor validation: zero,
// negative and non-finite factors fail instead of rounding every
// machine class down to its one-machine floor.
func TestScaleCapacityErrors(t *testing.T) {
	p, err := NewNetBatchPlatform(DefaultNetBatchConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		factor float64
		want   string
	}{
		{0, "non-positive capacity factor"},
		{-0.5, "non-positive capacity factor"},
		{math.NaN(), "non-finite capacity factor"},
		{math.Inf(1), "non-finite capacity factor"},
		{math.Inf(-1), "non-finite capacity factor"},
	} {
		if _, err := p.ScaleCapacity(tc.factor); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("factor %v: got %v, want %q", tc.factor, err, tc.want)
		}
	}
}

func TestScaleCapacityHalf(t *testing.T) {
	p, err := NewNetBatchPlatform(DefaultNetBatchConfig())
	if err != nil {
		t.Fatal(err)
	}
	half, err := p.ScaleCapacity(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.NumPools() != p.NumPools() {
		t.Fatalf("pool count changed: %d", half.NumPools())
	}
	ratio := float64(half.TotalCores()) / float64(p.TotalCores())
	if math.Abs(ratio-0.5) > 0.01 {
		t.Fatalf("halved core ratio = %v", ratio)
	}
	// Machine IDs remain dense and pool-consistent.
	for i := 0; i < half.NumMachines(); i++ {
		if half.Machine(i).ID != i {
			t.Fatalf("machine %d has ID %d", i, half.Machine(i).ID)
		}
	}
	for pid := range half.NumPools() {
		for _, mid := range half.Pool(pid).Machines {
			if half.Machine(mid).Pool != pid {
				t.Fatal("pool membership broken after scaling")
			}
		}
	}
	// Class mix roughly preserved: pool 0 still has multiple speeds.
	speeds := map[float64]bool{}
	for _, mid := range half.Pool(0).Machines {
		speeds[half.Machine(mid).Speed] = true
	}
	if len(speeds) < 2 {
		t.Fatalf("scaling lost machine heterogeneity: %v", speeds)
	}
	// Original platform untouched.
	if p.NumMachines() != 4*600+8*225+8*75 {
		t.Fatal("ScaleCapacity mutated the source platform")
	}
}

func TestScaleCapacityFloors(t *testing.T) {
	p, err := Build([]PoolConfig{{Classes: []MachineClass{{Count: 2, Cores: 1, MemMB: 1, Speed: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := p.ScaleCapacity(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tiny.Pool(0).Machines); got != 1 {
		t.Fatalf("pool machine count = %d, want floor of 1", got)
	}
	if _, err := p.ScaleCapacity(0); err == nil {
		t.Fatal("zero factor should fail")
	}
	// Factor > 1 clamps to the existing machine list.
	same, err := p.ScaleCapacity(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if same.NumMachines() != p.NumMachines() {
		t.Fatalf("upscale should clamp: %d", same.NumMachines())
	}
}
