package sched

import (
	"bytes"
	"slices"
	"testing"

	"netbatch/internal/job"
	"netbatch/internal/snap"
	"netbatch/internal/stats"
)

// fakeSiteView is a hand-wired SiteView: pools are assigned to sites
// round-trip via siteOf, with per-pool utilization and a delay matrix.
type fakeSiteView struct {
	siteOf []int
	util   []float64
	cores  []int
	rtt    [][]float64
	nSites int
}

var _ SiteView = (*fakeSiteView)(nil)

func (v *fakeSiteView) Utilization(p int) float64 { return v.util[p] }
func (v *fakeSiteView) QueueLen(int) int          { return 0 }
func (v *fakeSiteView) PoolCores(p int) int       { return v.cores[p] }
func (v *fakeSiteView) NumSites() int             { return v.nSites }
func (v *fakeSiteView) SiteOf(p int) int          { return v.siteOf[p] }
func (v *fakeSiteView) SiteUtilization(site int) float64 {
	var busy, cores float64
	for p, s := range v.siteOf {
		if s == site {
			busy += v.util[p] * float64(v.cores[p])
			cores += float64(v.cores[p])
		}
	}
	if cores == 0 {
		return 0
	}
	return busy / cores
}
func (v *fakeSiteView) RTT(a, b int) float64 {
	if v.rtt == nil || a == b {
		return 0
	}
	return v.rtt[a][b]
}

// twoSiteView: site 0 holds pools 0,1 (hot), site 1 holds pools 2,3
// (cool), 10 minutes apart.
func twoSiteView() *fakeSiteView {
	return &fakeSiteView{
		siteOf: []int{0, 0, 1, 1},
		util:   []float64{0.9, 0.8, 0.1, 0.2},
		cores:  []int{100, 100, 100, 100},
		rtt:    [][]float64{{0, 10}, {10, 0}},
		nSites: 2,
	}
}

func spec(site int, cands ...int) *job.Spec {
	return &job.Spec{ID: 1, Work: 1, Cores: 1, Priority: job.PriorityLow, Candidates: cands, Site: site}
}

// selectSite asks sel for a site with every candidate of spec
// eligible.
func selectSite(sel SiteSelector, spec *job.Spec, v SiteView) int {
	return sel.SelectSite(spec, spec.Candidates, v)
}

func TestLocalityFirst(t *testing.T) {
	v := twoSiteView()
	// Origin site 0 has an eligible candidate: stay local despite load.
	if s := selectSite(LocalityFirst{}, spec(0, 0, 1, 2, 3), v); s != 0 {
		t.Fatalf("SelectSite = %d; want 0", s)
	}
	// No candidate at the origin site: fall back to least utilized.
	if s := selectSite(LocalityFirst{}, spec(0, 2, 3), v); s != 1 {
		t.Fatalf("fallback SelectSite = %d; want 1", s)
	}
	// Candidates at the origin site that are not eligible do not count.
	if s := (LocalityFirst{}).SelectSite(spec(0, 0, 1, 2, 3), []int{2, 3}, v); s != 1 {
		t.Fatalf("SelectSite with origin pools ineligible = %d; want 1", s)
	}
}

func TestLeastUtilizedSite(t *testing.T) {
	v := twoSiteView()
	if s := selectSite(LeastUtilizedSite{}, spec(0, 0, 1, 2, 3), v); s != 1 {
		t.Fatalf("SelectSite = %d; want cool site 1", s)
	}
	// Equal sites tie toward the lower site ID, whatever the candidate
	// order.
	v.util = []float64{0.5, 0.5, 0.5, 0.5}
	if s := selectSite(LeastUtilizedSite{}, spec(0, 3, 2, 1, 0), v); s != 0 {
		t.Fatalf("tied SelectSite = %d; want lower site 0", s)
	}
	if s := (LeastUtilizedSite{}).SelectSite(spec(0), nil, v); s != -1 {
		t.Fatalf("SelectSite with no eligible pool = %d; want -1", s)
	}
}

func TestLatencyPenalizedUtil(t *testing.T) {
	v := twoSiteView()
	// Default penalty (0.005/min): 10 min away costs 0.05, far less
	// than the 0.70 utilization gap — go remote.
	if s := selectSite(LatencyPenalizedUtil{}, spec(0, 0, 1, 2, 3), v); s != 1 {
		t.Fatalf("SelectSite = %d; want 1", s)
	}
	// A punitive penalty keeps the job home.
	if s := selectSite(LatencyPenalizedUtil{Penalty: 0.1}, spec(0, 0, 1, 2, 3), v); s != 0 {
		t.Fatalf("penalized SelectSite = %d; want 0", s)
	}
}

func TestFederatedFiltersCandidatesToSite(t *testing.T) {
	v := twoSiteView()
	f := NewFederated(LeastUtilizedSite{})
	// Site 1 is the cooler site; its two equal pools take turns.
	for i, want := range []int{2, 3, 2, 3} {
		p := selectAll(f, spec(0, 0, 1, 2, 3), v)
		if v.SiteOf(p) != 1 {
			t.Fatalf("pick %d: pool %d not at selected site 1", i, p)
		}
		if p != want {
			t.Fatalf("pick %d: pool = %d, want %d (site 1's rotation)", i, p, want)
		}
	}
}

func TestFederatedSingleSiteFallback(t *testing.T) {
	v := &fakeSiteView{
		siteOf: []int{0, 0},
		util:   []float64{0.5, 0.1},
		cores:  []int{10, 30},
		nSites: 1,
	}
	f := NewFederated(LeastUtilizedSite{})
	rr := NewRoundRobin()
	// One site: plain capacity-weighted round-robin over every
	// candidate, whatever the selector would prefer.
	for i := 0; i < 8; i++ {
		if p, want := selectAll(f, spec(0, 0, 1), v), selectAll(rr, spec(0, 0, 1), v); p != want {
			t.Fatalf("pick %d: pool = %d; want %d", i, p, want)
		}
	}
	if got := f.Name(); got != "fed(least-util+rr)" {
		t.Fatalf("Name = %q", got)
	}
}

// scriptedSite is a SiteSelector that returns the site the test set
// last.
type scriptedSite struct{ site *int }

func (scriptedSite) Name() string { return "scripted" }

func (s scriptedSite) SelectSite(*job.Spec, []int, SiteView) int { return *s.site }

// TestFederatedMatchesPerSiteRoundRobin holds the federated scheduler
// to the composition it stands for: one round-robin instance per site,
// each given the job's eligible pools at that site. Pools of unequal
// size make the weighted rotations uneven, one ineligible pool makes
// the site filter and the eligible list interact, and halfway through
// the rotations move through SaveState into a fresh scheduler.
func TestFederatedMatchesPerSiteRoundRobin(t *testing.T) {
	v := &fakeSiteView{
		siteOf: []int{0, 0, 0, 1, 1, 1},
		util:   make([]float64, 6),
		cores:  []int{300, 1200, 600, 2400, 100, 900},
		nSites: 2,
	}
	const ineligible = 5
	menu := [][]int{{0, 1, 2, 3, 4, 5}, {0, 1, 3, 4}, {1, 2, 5}, {3, 4, 5}, {0, 2, 4}, {2, 3, 4, 5}, {4, 0, 1}}
	var site int
	f := NewFederated(scriptedSite{&site})
	perSite := []*RoundRobin{NewRoundRobin(), NewRoundRobin()}
	rng := stats.NewRNG(7)
	const n = 100
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		if i == n/2 {
			var saved, again snap.Encoder
			f.SaveState(&saved)
			resumed := NewFederated(scriptedSite{&site})
			if err := resumed.LoadState(snap.NewDecoder(saved.Buf)); err != nil {
				t.Fatal(err)
			}
			if resumed.SaveState(&again); !bytes.Equal(again.Buf, saved.Buf) {
				t.Fatalf("re-saved state %x, want %x", again.Buf, saved.Buf)
			}
			f = resumed
		}
		cands := menu[rng.IntN(len(menu))]
		var eligible, sites []int
		for _, p := range cands {
			if p == ineligible {
				continue
			}
			eligible = append(eligible, p)
			if !slices.Contains(sites, v.siteOf[p]) {
				sites = append(sites, v.siteOf[p])
			}
		}
		site = sites[rng.IntN(len(sites))]
		got := f.SelectPool(spec(0, cands...), eligible, v)
		local := spec(0)
		for _, p := range eligible {
			if v.siteOf[p] == site {
				local.Candidates = append(local.Candidates, p)
			}
		}
		if want := selectAll(perSite[site], local, v); got != want {
			t.Fatalf("submission %d (candidates %v, site %d): pool %d, per-site round-robin picks %d",
				i, cands, site, got, want)
		}
		seen[got] = true
	}
	if len(seen) != 5 {
		t.Fatalf("picked pools %v, want every eligible pool", seen)
	}
}

// TestFederatedRejectsSiteWithoutEligiblePool returns -1, for the
// simulator to reject, when the selector picks a site that holds none
// of the job's eligible pools, an unknown site included.
func TestFederatedRejectsSiteWithoutEligiblePool(t *testing.T) {
	v := twoSiteView()
	for _, site := range []int{0, 7, -1} {
		f := NewFederated(scriptedSite{&site})
		if p := f.SelectPool(spec(0, 0, 1, 2, 3), []int{2, 3}, v); p != -1 {
			t.Fatalf("selector picked site %d: pool = %d, want -1", site, p)
		}
	}
}
