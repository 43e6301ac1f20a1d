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
	siteOf     []int
	util       []float64
	cores      []int
	rtt        [][]float64
	nSites     int
	ineligible map[int]bool
}

var _ SiteView = (*fakeSiteView)(nil)

func (v *fakeSiteView) Utilization(p int) float64        { return v.util[p] }
func (v *fakeSiteView) QueueLen(int) int                 { return 0 }
func (v *fakeSiteView) PoolCores(p int) int              { return v.cores[p] }
func (v *fakeSiteView) Eligible(p int, _ *job.Spec) bool { return !v.ineligible[p] }
func (v *fakeSiteView) NumSites() int                    { return v.nSites }
func (v *fakeSiteView) SiteOf(p int) int                 { return v.siteOf[p] }
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

func TestLocalityFirst(t *testing.T) {
	v := twoSiteView()
	// Origin site 0 has an eligible candidate: stay local despite load.
	s, err := LocalityFirst{}.SelectSite(0, spec(0, 0, 1, 2, 3), v)
	if err != nil || s != 0 {
		t.Fatalf("SelectSite = %d, %v; want 0", s, err)
	}
	// No candidate at the origin site: fall back to least utilized.
	s, err = LocalityFirst{}.SelectSite(0, spec(0, 2, 3), v)
	if err != nil || s != 1 {
		t.Fatalf("fallback SelectSite = %d, %v; want 1", s, err)
	}
}

func TestLeastUtilizedSite(t *testing.T) {
	v := twoSiteView()
	s, err := LeastUtilizedSite{}.SelectSite(0, spec(0, 0, 1, 2, 3), v)
	if err != nil || s != 1 {
		t.Fatalf("SelectSite = %d, %v; want cool site 1", s, err)
	}
}

func TestLatencyPenalizedUtil(t *testing.T) {
	v := twoSiteView()
	// Default penalty (0.005/min): 10 min away costs 0.05, far less
	// than the 0.70 utilization gap — go remote.
	s, err := LatencyPenalizedUtil{}.SelectSite(0, spec(0, 0, 1, 2, 3), v)
	if err != nil || s != 1 {
		t.Fatalf("SelectSite = %d, %v; want 1", s, err)
	}
	// A punitive penalty keeps the job home.
	s, err = LatencyPenalizedUtil{Penalty: 0.1}.SelectSite(0, spec(0, 0, 1, 2, 3), v)
	if err != nil || s != 0 {
		t.Fatalf("penalized SelectSite = %d, %v; want 0", s, err)
	}
}

func TestFederatedFiltersCandidatesToSite(t *testing.T) {
	v := twoSiteView()
	f := NewFederated(LeastUtilizedSite{})
	// Site 1 is the cooler site; its two equal pools take turns.
	for i, want := range []int{2, 3, 2, 3} {
		p, err := f.SelectPool(0, spec(0, 0, 1, 2, 3), v)
		if err != nil {
			t.Fatal(err)
		}
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
		p, err := f.SelectPool(0, spec(0, 0, 1), v)
		want, werr := rr.SelectPool(0, spec(0, 0, 1), v)
		if err != nil || werr != nil || p != want {
			t.Fatalf("pick %d: pool = %d, %v; want %d, %v", i, p, err, want, werr)
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

func (s scriptedSite) SelectSite(float64, *job.Spec, SiteView) (int, error) { return *s.site, nil }

// TestFederatedMatchesPerSiteRoundRobin holds the federated scheduler
// to the composition it stands for: one round-robin instance per site,
// each given the job's candidates at that site. Pools of unequal size
// make the weighted rotations uneven, one ineligible pool makes the
// site and eligibility filters interact, and halfway through the
// rotations move through SaveState into a fresh scheduler.
func TestFederatedMatchesPerSiteRoundRobin(t *testing.T) {
	v := &fakeSiteView{
		siteOf:     []int{0, 0, 0, 1, 1, 1},
		util:       make([]float64, 6),
		cores:      []int{300, 1200, 600, 2400, 100, 900},
		nSites:     2,
		ineligible: map[int]bool{5: true},
	}
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
		var sites []int
		for _, p := range cands {
			if !v.ineligible[p] && !slices.Contains(sites, v.siteOf[p]) {
				sites = append(sites, v.siteOf[p])
			}
		}
		site = sites[rng.IntN(len(sites))]
		got, err := f.SelectPool(0, spec(0, cands...), v)
		if err != nil {
			t.Fatal(err)
		}
		local := spec(0)
		for _, p := range cands {
			if v.siteOf[p] == site {
				local.Candidates = append(local.Candidates, p)
			}
		}
		want, err := perSite[site].SelectPool(0, local, v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("submission %d (candidates %v, site %d): pool %d, per-site round-robin picks %d",
				i, cands, site, got, want)
		}
		seen[got] = true
	}
	if len(seen) != 5 {
		t.Fatalf("picked pools %v, want every eligible pool", seen)
	}
}

func TestSelectorsErrorWithoutEligibleSite(t *testing.T) {
	v := twoSiteView()
	empty := &job.Spec{ID: 9, Work: 1, Cores: 1, Priority: job.PriorityLow, Candidates: []int{}}
	if _, err := (LeastUtilizedSite{}).SelectSite(0, empty, v); err == nil {
		t.Fatal("want error for no candidates")
	}
	if _, err := (LocalityFirst{}).SelectSite(0, empty, v); err == nil {
		t.Fatal("want error for no candidates")
	}
	if _, err := (LatencyPenalizedUtil{}).SelectSite(0, empty, v); err == nil {
		t.Fatal("want error for no candidates")
	}
}
