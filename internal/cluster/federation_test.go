package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestBuildDerivesSites(t *testing.T) {
	plat, err := Build([]PoolConfig{
		{Name: "a0", Site: "east", Classes: []MachineClass{{Count: 2, Cores: 4, MemMB: 1024, Speed: 1}}},
		{Name: "b0", Site: "west", Classes: []MachineClass{{Count: 1, Cores: 4, MemMB: 1024, Speed: 1}}},
		{Name: "a1", Site: "east", Classes: []MachineClass{{Count: 3, Cores: 2, MemMB: 1024, Speed: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plat.NumSites() != 2 {
		t.Fatalf("NumSites = %d, want 2", plat.NumSites())
	}
	east := plat.Site(0)
	if east.Region != "east" || len(east.Pools) != 2 || east.Cores != 2*4+3*2 {
		t.Fatalf("east site = %+v", east)
	}
	if plat.SiteOf(0) != 0 || plat.SiteOf(1) != 1 || plat.SiteOf(2) != 0 {
		t.Fatal("SiteOf mapping wrong")
	}
	if plat.RTT(0, 1) != 0 || plat.MaxRTT() != 0 {
		t.Fatal("unattached RTT should be zero")
	}
}

func TestWithRTTValidation(t *testing.T) {
	plat, err := Build([]PoolConfig{
		{Site: "a", Classes: []MachineClass{{Count: 1, Cores: 1, MemMB: 1, Speed: 1}}},
		{Site: "b", Classes: []MachineClass{{Count: 1, Cores: 1, MemMB: 1, Speed: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][][]float64{
		{{0}},                      // wrong size
		{{0, 1}, {1}},              // ragged
		{{0, -1}, {1, 0}},          // negative
		{{1, 2}, {2, 0}},           // non-zero diagonal
		{{0, math.Inf(1)}, {1, 0}}, // infinite
		{{0, 1}, {math.NaN(), 0}},  // NaN
	} {
		if _, err := plat.WithRTT(bad); err == nil {
			t.Errorf("WithRTT(%v) accepted invalid matrix", bad)
		}
	}
	good, err := plat.WithRTT([][]float64{{0, 7}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if good.RTT(0, 1) != 7 || good.RTT(1, 0) != 3 || good.RTT(0, 0) != 0 {
		t.Fatal("RTT lookup wrong")
	}
	if good.MaxRTT() != 7 {
		t.Fatalf("MaxRTT = %v, want 7", good.MaxRTT())
	}
}

func TestMetroRTT(t *testing.T) {
	m := MetroRTT(3, 5, 5)
	if m[0][0] != 0 || m[0][1] != 5 || m[0][2] != 10 || m[2][0] != 10 {
		t.Fatalf("MetroRTT = %v", m)
	}
}

func TestNewFederationPlatform(t *testing.T) {
	per := SiteNetBatchConfig()
	per.Scale = 0.02
	plat, err := NewFederationPlatform(FederationConfig{
		Regions: []string{"A", "B", "C"},
		PerSite: per,
		RTT:     MetroRTT(3, 5, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plat.NumSites() != 3 {
		t.Fatalf("NumSites = %d", plat.NumSites())
	}
	k := per.PoolsPerSite()
	if plat.NumPools() != 3*k {
		t.Fatalf("NumPools = %d, want %d", plat.NumPools(), 3*k)
	}
	// Site-major pool IDs.
	for p := 0; p < plat.NumPools(); p++ {
		if plat.SiteOf(p) != p/k {
			t.Fatalf("pool %d at site %d, want %d", p, plat.SiteOf(p), p/k)
		}
	}
	// All sites identical in capacity.
	if plat.Site(0).Cores != plat.Site(1).Cores || plat.Site(1).Cores != plat.Site(2).Cores {
		t.Fatal("sites should have equal capacity")
	}
	if plat.RTT(0, 2) != 10 {
		t.Fatalf("RTT(0,2) = %v", plat.RTT(0, 2))
	}

	// Error paths.
	if _, err := NewFederationPlatform(FederationConfig{PerSite: per}); err == nil {
		t.Error("no regions should error")
	}
	if _, err := NewFederationPlatform(FederationConfig{
		Regions: []string{"A", "A"}, PerSite: per,
	}); err == nil {
		t.Error("duplicate region should error")
	}
	if _, err := NewFederationPlatform(FederationConfig{
		Regions: []string{"A", "B"}, PerSite: per, RTT: MetroRTT(3, 1, 1),
	}); err == nil {
		t.Error("mismatched RTT should error")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := per
		bad.Scale = v
		if _, err := NewFederationPlatform(FederationConfig{
			Regions: []string{"A", "B"}, PerSite: bad,
		}); err == nil || !strings.Contains(err.Error(), "non-finite scale") {
			t.Errorf("scale %v: got %v, want a non-finite scale error", v, err)
		}
	}
}

func TestScaleCapacityPreservesSites(t *testing.T) {
	per := SiteNetBatchConfig()
	per.Scale = 0.02
	plat, err := NewFederationPlatform(FederationConfig{
		Regions: []string{"A", "B"},
		PerSite: per,
		RTT:     MetroRTT(2, 5, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	half, err := plat.ScaleCapacity(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.NumSites() != 2 {
		t.Fatalf("scaled NumSites = %d", half.NumSites())
	}
	if half.RTT(0, 1) != 5 {
		t.Fatalf("scaled RTT(0,1) = %v, want 5", half.RTT(0, 1))
	}
	for p := 0; p < half.NumPools(); p++ {
		if half.SiteOf(p) != plat.SiteOf(p) {
			t.Fatalf("pool %d changed site after scaling", p)
		}
	}
	if half.Site(0).Cores >= plat.Site(0).Cores {
		t.Fatal("scaling should shrink site capacity")
	}
}
