package main

import (
	"fmt"
	"strings"

	"netbatch/internal/experiments"
	"netbatch/internal/sched"
)

// A workload is one set of benchmark inputs: the matrix plans it runs,
// at which scale, on how many matrix workers. BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name  string
	scale float64
	// jobs is Options.Jobs, the matrix worker count.
	jobs int
	// reps is the replicate count per cell (as -seeds would run): each
	// replicate synthesizes its own trace from a seed forked off the
	// run's seed, so a run averages over several inputs.
	reps  int
	plans func() ([]*plan, error)
	// ckpt runs the single plan twice: a pass that checkpoints every
	// cell, then, after the newer half of each cell's files is deleted,
	// a pass that resumes from what is left.
	ckpt bool
}

// ckptEvery and ckptKeyframe are the checkpoint cadence of the ckpt
// workload: a snapshot every four simulated weeks, every eighth one
// full and the rest deltas, as -checkpoint-every 40320
// -checkpoint-keyframe 8 would write.
const (
	ckptEvery    = 4 * 7 * 1440
	ckptKeyframe = 8
)

var workloads = []*workload{
	{
		name:  "all_experiments",
		scale: 0.1,
		jobs:  2,
		reps:  1,
		plans: allExperimentPlans,
	},
	{
		name:  "year6_fed",
		scale: 0.05,
		jobs:  1,
		reps:  2,
		plans: func() ([]*plan, error) { return year6Plans("") },
	},
	{
		name:  "year6_ckpt",
		scale: 0.05,
		jobs:  1,
		reps:  1,
		plans: func() ([]*plan, error) { return year6Plans("ResSusWaitLatency") },
		ckpt:  true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// planKind selects how a plan's results are summarized and rendered,
// mirroring the experiment that owns the plan.
type planKind int

const (
	kindTable  planKind = iota // Tables 1–5 and highsusp: paper + waste tables, util/suspended series
	kindSites                  // multisite and year6: paper table + per-site breakdowns
	kindFaults                 // faults: paper table + fault/availability table
	kindYear                   // fig2 and fig4: suspension CDF, utilization/suspension sparklines
)

// A plan is one experiments.Matrix and the way its results are
// rendered.
type plan struct {
	id    string
	title string
	kind  planKind
	m     experiments.Matrix
}

// allExperimentPlans returns the distinct matrices of every registered
// experiment. fig3 is table1's waste table and fig4 plots fig2's cell,
// so their matrices do not run again; render draws both figures.
func allExperimentPlans() ([]*plan, error) {
	kinds := map[string]planKind{
		"table1": kindTable, "table2": kindTable, "table3": kindTable, "table4": kindTable, "table5": kindTable,
		"highsusp": kindTable, "multisite": kindSites, "faults": kindFaults, "fig2": kindYear,
	}
	var plans []*plan
	for _, id := range experiments.IDs() {
		if id == "fig3" || id == "fig4" {
			continue
		}
		kind, ok := kinds[id]
		if !ok {
			return nil, fmt.Errorf("experiment %q has no benchmark rendering", id)
		}
		e, err := experiments.Get(id)
		if err != nil {
			return nil, err
		}
		plans = append(plans, &plan{id: id, title: e.Title, kind: kind, m: e.Plan(experiments.Options{})})
	}
	return plans, nil
}

// year6Plans returns the year-long 6-site federation matrix with the
// multisite experiment's policies, or only the named one.
func year6Plans(only string) ([]*plan, error) {
	ms, err := experiments.Get("multisite")
	if err != nil {
		return nil, err
	}
	var pols []experiments.PolicyFactory
	for _, pf := range ms.Plan(experiments.Options{}).Policies {
		if only == "" || pf.Name == only {
			pols = append(pols, pf)
		}
	}
	if len(pols) == 0 {
		return nil, fmt.Errorf("multisite has no policy %q", only)
	}
	sc := experiments.MultiSiteYearScenario("year6", 6,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })
	return []*plan{{
		id:    "year6",
		title: "Year-long 6-site metro federation (latency-penalized site selection)",
		kind:  kindSites,
		m:     experiments.Matrix{Scenarios: []experiments.Scenario{sc}, Policies: pols},
	}}, nil
}
