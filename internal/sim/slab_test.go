package sim

// Tests for the job-record slab: a run's records share the caller's
// specs instead of copying them, building them costs a constant number
// of allocations however many jobs the trace holds, and a job costs no
// more in flight than before its record was split.

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"netbatch/internal/core"
	"netbatch/internal/job"
)

func TestRunSharesSpecs(t *testing.T) {
	plat, specs, err := randomWorkload(rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(specs)
	for i := range before {
		before[i].Candidates = slices.Clone(specs[i].Candidates)
	}
	cfg := baseConfig(plat)
	cfg.Policy = core.NewResSusMigrate(3)
	cfg.Faults = FaultConfig{MTBF: 60, MTTR: 20, MaintPeriod: 200, MaintDuration: 40, MaintFraction: 0.3, Seed: 9}
	res := run(t, cfg, specs)
	if res.Migrations == 0 || res.Kills == 0 {
		t.Fatalf("workload exercises too little: %d migrations, %d kills", res.Migrations, res.Kills)
	}
	for i, j := range res.Jobs {
		if j.Spec != &specs[i] {
			t.Fatalf("Jobs[%d].Spec does not point at specs[%d]", i, i)
		}
	}
	if !reflect.DeepEqual(specs, before) {
		t.Fatal("Run modified its specs")
	}
}

// TestBuildWorldAllocsIndependentOfJobs guards the slab: the job
// records of a run are one allocation, not one per job.
func TestBuildWorldAllocsIndependentOfJobs(t *testing.T) {
	raw := baseConfig(miniPlatform(t, 2, 2))
	cfg, err := raw.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		specs := make([]job.Spec, n)
		cands := []int{0, 1}
		for i := range specs {
			specs[i] = lowJob(job.ID(i+1), float64(i), 10, cands...)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := buildWorld(cfg, specs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	if large-small > 2 {
		t.Fatalf("building the world allocates %v times for 1,000 jobs and %v for 8,000", small, large)
	}
}

// TestInFlightJobSize pins what a job costs while its run is in flight:
// the engine's runtime record, which holds the attempt state, plus the
// outcome record the run keeps. Splitting the two must not make the
// pair larger than the 200 bytes a job cost when one record held both.
func TestInFlightJobSize(t *testing.T) {
	rt, rec := unsafe.Sizeof(jobRT{}), unsafe.Sizeof(job.Job{})
	if rt+rec > 200 {
		t.Fatalf("jobRT (%d B) plus job.Job (%d B) is %d bytes per job in flight, want at most 200", rt, rec, rt+rec)
	}
}
