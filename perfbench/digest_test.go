package main

import (
	"reflect"
	"testing"

	"netbatch/internal/metrics"
	"netbatch/internal/sim"
)

func sampleCell() (metrics.Summary, *sim.Result) {
	s := metrics.Summary{
		Jobs: 1000, SuspendedJobs: 37, SuspendRate: 3.7,
		AvgCTSuspended: 812.5, AvgCTAll: 301.25, AvgST: 95.125, AvgWCT: 40.5,
		WaitComp: 20.25, SuspendComp: 15.25, ReschedComp: 5,
		MedianCT: 240, P90CT: 655.5, AvgWait: 20.25,
		Restarts: 12, WaitReschedules: 30, Suspensions: 51, Kills: 2,
	}
	r := &sim.Result{
		Preemptions: 51, Restarts: 12, WaitMoves: 30, CrossSiteSubmits: 4,
		CrossSiteMoves: 9, Kills: 2, Requeues: 2, Makespan: 10123.75,
	}
	return s, r
}

func TestDigestStable(t *testing.T) {
	s, r := sampleCell()
	const want = "5f6c5518b0bc34091682c9b7"
	if got := cellDigest(s, r); got != want {
		t.Fatalf("digest %s, want %s: the digest format changed, so every recorded reference is stale", got, want)
	}
}

func TestDigestCoversEverySummaryField(t *testing.T) {
	s, r := sampleCell()
	base := cellDigest(s, r)
	for i := 0; i < reflect.TypeOf(s).NumField(); i++ {
		m := s
		f := reflect.ValueOf(&m).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() * (1 + 1e-15)) // a one-ulp-scale change
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		}
		if cellDigest(m, r) == base {
			t.Errorf("changing Summary.%s leaves the digest unchanged", reflect.TypeOf(s).Field(i).Name)
		}
	}
}

func TestDigestCoversSimulatedCounters(t *testing.T) {
	s, r := sampleCell()
	base := cellDigest(s, r)
	for name, bump := range map[string]func(*sim.Result){
		"Preemptions":      func(r *sim.Result) { r.Preemptions++ },
		"Restarts":         func(r *sim.Result) { r.Restarts++ },
		"WaitMoves":        func(r *sim.Result) { r.WaitMoves++ },
		"CrossSiteSubmits": func(r *sim.Result) { r.CrossSiteSubmits++ },
		"CrossSiteMoves":   func(r *sim.Result) { r.CrossSiteMoves++ },
		"Kills":            func(r *sim.Result) { r.Kills++ },
		"Requeues":         func(r *sim.Result) { r.Requeues++ },
		"Makespan":         func(r *sim.Result) { r.Makespan += 0.5 },
	} {
		m := *r
		bump(&m)
		if cellDigest(s, &m) == base {
			t.Errorf("changing Result.%s leaves the digest unchanged", name)
		}
	}
}

func TestDigestIgnoresExecutionCounters(t *testing.T) {
	s, r := sampleCell()
	base := cellDigest(s, r)
	m := *r
	m.Events, m.AliasRetirements, m.Rollbacks = 123456, 7, 3
	if cellDigest(s, &m) != base {
		t.Error("execution counters changed the digest")
	}
}

func TestReferencesLoad(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []uint64{42, heldOutSeed} {
			if refs.lookup(w, seed, w.scale) == nil {
				t.Errorf("no reference digests for %s at seed %d", w.name, seed)
			}
		}
		if refs.lookup(w, 42, canaryScale) == nil {
			t.Errorf("no canary digests for %s", w.name)
		}
	}
}
