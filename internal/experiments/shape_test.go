package experiments

// Integration tests: run every experiment at reduced scale and assert
// the paper's qualitative result shapes (who wins, roughly by what
// factor). Absolute values differ from the paper — the trace is
// synthetic — but these orderings are the reproduction's contract.

import (
	"reflect"
	"testing"
)

// testOpts shrinks everything ~10x; shapes were calibrated at this
// scale against the full-scale runs.
func testOpts() Options {
	return Options{Seed: 42, Scale: 0.1}
}

// runExperiment executes one registered experiment.
func runExperiment(t *testing.T, id string) *Output {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Names) != len(out.Summaries) {
		t.Fatal("names/summaries misaligned")
	}
	for i, s := range out.Summaries {
		if err := s.CheckComponents(); err != nil {
			t.Fatalf("strategy %s: %v", out.Names[i], err)
		}
	}
	return out
}

// byName indexes summaries by strategy name.
func byName(t *testing.T, out *Output) map[string]int {
	t.Helper()
	m := make(map[string]int, len(out.Names))
	for i, n := range out.Names {
		m[n] = i
	}
	return m
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"faults", "fig2", "fig3", "fig4", "highsusp", "multisite", "table1", "table2", "table3", "table4", "table5"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
}

// TestPlansSharingAScenarioAgree pins what makes RunAll's dedupe key
// (scenario IDs, policy names, seeds) sound and keeps one checkpoint
// file prefix per cell: a scenario ID that two registered plans share
// comes with the same policy names, and builds equal platforms and
// traces. fig2 and fig4 share "year"; fig3 and table1 share "table1".
func TestPlansSharingAScenarioAgree(t *testing.T) {
	const scale = 0.01
	type use struct {
		id       string
		policies []string
		sc       Scenario
	}
	first := map[string]use{}
	shared := 0
	for _, id := range IDs() {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		m := e.Plan(Options{})
		var names []string
		for _, pf := range m.Policies {
			names = append(names, pf.Name)
		}
		for _, sc := range m.Scenarios {
			prev, ok := first[sc.ID]
			if !ok {
				first[sc.ID] = use{id, names, sc}
				continue
			}
			shared++
			if !reflect.DeepEqual(prev.policies, names) {
				t.Errorf("scenario %s: %s plans policies %v, %s plans %v", sc.ID, prev.id, prev.policies, id, names)
			}
			for _, build := range []func(Scenario) (any, error){
				func(sc Scenario) (any, error) { return sc.Platform(scale) },
				func(sc Scenario) (any, error) { return sc.Trace(42, scale) },
			} {
				a, err := build(prev.sc)
				if err != nil {
					t.Fatal(err)
				}
				b, err := build(sc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("scenario %s: %s and %s build different %T", sc.ID, prev.id, id, a)
				}
			}
		}
	}
	if shared != 2 {
		t.Errorf("%d scenario IDs are shared between plans, want 2 (year, table1)", shared)
	}
}

func TestTable1NormalLoadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	out := runExperiment(t, "table1")
	idx := byName(t, out)
	noRes := out.Summaries[idx["NoRes"]]
	util := out.Summaries[idx["ResSusUtil"]]
	rand := out.Summaries[idx["ResSusRand"]]

	// The trace-level statistics the paper documents (§2.2/§3.2.1).
	if noRes.SuspendRate < 0.5 || noRes.SuspendRate > 3.5 {
		t.Errorf("NoRes suspend rate = %.2f%%, want ~1%% (paper 1.14%%)", noRes.SuspendRate)
	}
	if noRes.AvgST < 400 || noRes.AvgST > 2500 {
		t.Errorf("NoRes AvgST = %.0f, want hundreds-to-thousands of minutes (paper 1189)", noRes.AvgST)
	}

	// Headline result: ResSusUtil cuts AvgCT of suspended jobs by ~50%
	// (paper: 2498.7 -> 1265.4).
	if util.AvgCTSuspended > 0.70*noRes.AvgCTSuspended {
		t.Errorf("ResSusUtil AvgCT(susp) = %.0f vs NoRes %.0f; want >=30%% reduction",
			util.AvgCTSuspended, noRes.AvgCTSuspended)
	}
	// System waste: AvgWCT reduced by ~33% (paper: 31.0 -> 20.8).
	if util.AvgWCT > 0.85*noRes.AvgWCT {
		t.Errorf("ResSusUtil AvgWCT = %.1f vs NoRes %.1f; want >=15%% reduction",
			util.AvgWCT, noRes.AvgWCT)
	}
	// Suspend time nearly eliminated (paper AvgST: 1189.1 -> 82.2).
	if util.AvgST > 0.2*noRes.AvgST {
		t.Errorf("ResSusUtil AvgST = %.1f vs NoRes %.1f; want >=80%% reduction",
			util.AvgST, noRes.AvgST)
	}
	// Blind random selection backfires relative to the informed choice
	// (paper: ResSusRand worse on every aggregate).
	if rand.AvgWCT <= util.AvgWCT {
		t.Errorf("ResSusRand AvgWCT = %.1f <= ResSusUtil %.1f; random should waste more",
			rand.AvgWCT, util.AvgWCT)
	}
	if rand.AvgCTSuspended <= util.AvgCTSuspended {
		t.Errorf("ResSusRand AvgCT(susp) = %.0f <= ResSusUtil %.0f",
			rand.AvgCTSuspended, util.AvgCTSuspended)
	}
	// Rescheduling slightly raises the suspend rate ("a more aggressive
	// use of system resources", §3.2.1).
	if util.SuspendRate < noRes.SuspendRate {
		t.Errorf("ResSusUtil suspend rate %.2f%% < NoRes %.2f%%; rescheduling should raise it",
			util.SuspendRate, noRes.SuspendRate)
	}
}

func TestTable2HighLoadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	normal := runExperiment(t, "table1")
	high := runExperiment(t, "table2")
	ni, hi := byName(t, normal), byName(t, high)
	noResN := normal.Summaries[ni["NoRes"]]
	noResH := high.Summaries[hi["NoRes"]]
	utilN := normal.Summaries[ni["ResSusUtil"]]
	utilH := high.Summaries[hi["ResSusUtil"]]

	// Halving cores inflates completion time substantially (paper:
	// AvgCT(all) 569.8 -> 988.7, "almost doubled").
	if noResH.AvgCTAll < 1.5*noResN.AvgCTAll {
		t.Errorf("high-load AvgCT(all) = %.0f vs normal %.0f; want >=1.5x",
			noResH.AvgCTAll, noResN.AvgCTAll)
	}
	// The benefit of rescheduling is "further enhanced under the high
	// load situation" (paper: 50% -> 75% reduction).
	cutN := 1 - utilN.AvgCTSuspended/noResN.AvgCTSuspended
	cutH := 1 - utilH.AvgCTSuspended/noResH.AvgCTSuspended
	if cutH <= cutN {
		t.Errorf("AvgCT(susp) reduction high %.0f%% <= normal %.0f%%; high load should amplify",
			cutH*100, cutN*100)
	}
	if cutH < 0.5 {
		t.Errorf("high-load AvgCT(susp) reduction = %.0f%%, want >=50%% (paper 75%%)", cutH*100)
	}
}

func TestTable3UtilInitialShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	out := runExperiment(t, "table3")
	idx := byName(t, out)
	noRes := out.Summaries[idx["NoRes"]]
	util := out.Summaries[idx["ResSusUtil"]]
	// "Dynamic rescheduling ResSusUtil still works with the
	// utilization-based initial scheduler" (paper: 75% AvgCT(susp)
	// reduction, 11% AvgWCT reduction).
	if util.AvgCTSuspended > 0.8*noRes.AvgCTSuspended {
		t.Errorf("util-initial: ResSusUtil AvgCT(susp) = %.0f vs NoRes %.0f; want >=20%% cut",
			util.AvgCTSuspended, noRes.AvgCTSuspended)
	}
	// NOTE: the paper also reports a higher NoRes suspend rate under
	// utilization-based initial scheduling than under round-robin
	// (1.50% vs 1.26%). Our reproduction diverges there: the live/30min
	// -stale utilization view dodges burst pools more effectively than
	// the paper's scheduler apparently did.
}

func TestTable4WaitReschedulingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	table2 := runExperiment(t, "table2")
	table4 := runExperiment(t, "table4")
	i2, i4 := byName(t, table2), byName(t, table4)
	noRes := table4.Summaries[i4["NoRes"]]
	susUtil := table2.Summaries[i2["ResSusUtil"]]
	waitUtil := table4.Summaries[i4["ResSusWaitUtil"]]
	waitRand := table4.Summaries[i4["ResSusWaitRand"]]

	// Combined rescheduling improves on suspended-only rescheduling
	// (paper: 1475.1 -> 1224.3 AvgCT(susp)).
	if waitUtil.AvgCTSuspended >= susUtil.AvgCTSuspended {
		t.Errorf("ResSusWaitUtil AvgCT(susp) = %.0f >= ResSusUtil %.0f; wait rescheduling should help",
			waitUtil.AvgCTSuspended, susUtil.AvgCTSuspended)
	}
	// And reduces system-wide waste vs NoRes (paper: 450.1 -> 414.2).
	if waitUtil.AvgWCT >= noRes.AvgWCT {
		t.Errorf("ResSusWaitUtil AvgWCT = %.0f >= NoRes %.0f", waitUtil.AvgWCT, noRes.AvgWCT)
	}
	// The random variant "performs almost as well as a utilization-based
	// approach" thanks to repeated second chances (paper: 1417 vs 1224).
	if waitRand.AvgCTSuspended > 1.8*waitUtil.AvgCTSuspended {
		t.Errorf("ResSusWaitRand AvgCT(susp) = %.0f vs ResSusWaitUtil %.0f; want within 1.8x",
			waitRand.AvgCTSuspended, waitUtil.AvgCTSuspended)
	}
	if waitRand.AvgWCT >= noRes.AvgWCT {
		t.Errorf("ResSusWaitRand AvgWCT = %.0f >= NoRes %.0f", waitRand.AvgWCT, noRes.AvgWCT)
	}
	// Wait rescheduling costs far more restart operations (§3.3.2's
	// design-simplicity-vs-restart-frequency trade-off).
	if waitRand.WaitReschedules == 0 || waitUtil.WaitReschedules == 0 {
		t.Error("wait rescheduling never fired")
	}
}

func TestTable5WaitUtilInitialShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	out := runExperiment(t, "table5")
	idx := byName(t, out)
	noRes := out.Summaries[idx["NoRes"]]
	waitUtil := out.Summaries[idx["ResSusWaitUtil"]]
	waitRand := out.Summaries[idx["ResSusWaitRand"]]
	// The random strategy again lands close to the utilization-based
	// one (paper: 1603.1 vs 1467.2) and both beat NoRes.
	if waitUtil.AvgCTSuspended >= noRes.AvgCTSuspended ||
		waitRand.AvgCTSuspended >= noRes.AvgCTSuspended {
		t.Errorf("combined rescheduling failed to beat NoRes: %0.f/%0.f vs %0.f",
			waitUtil.AvgCTSuspended, waitRand.AvgCTSuspended, noRes.AvgCTSuspended)
	}
	if waitRand.AvgCTSuspended > 1.8*waitUtil.AvgCTSuspended {
		t.Errorf("ResSusWaitRand = %.0f not close to ResSusWaitUtil %.0f",
			waitRand.AvgCTSuspended, waitUtil.AvgCTSuspended)
	}
}

func TestFig2SuspensionCDFShape(t *testing.T) {
	if testing.Short() {
		t.Skip("year-long run")
	}
	out := runExperiment(t, "fig2")
	pts := out.Series["suspension_cdf"]
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
	// Long-tailed distribution: the paper reports median 437 min, mean
	// 905 min — the mean far above the median — and a tail beyond 100k
	// minutes. Locate the median and p90 from the CDF points.
	var median, p90 float64
	for _, p := range pts {
		if median == 0 && p.Y >= 0.5 {
			median = p.X
		}
		if p90 == 0 && p.Y >= 0.9 {
			p90 = p.X
		}
	}
	if median < 100 || median > 2500 {
		t.Errorf("suspension median = %.0f min, want hundreds (paper 437)", median)
	}
	if p90 < 2*median {
		t.Errorf("p90 %.0f < 2x median %.0f; distribution should be long-tailed", p90, median)
	}
	// CDF monotone.
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y || pts[i].X < pts[i-1].X {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestFig3WasteComponentsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	out := runExperiment(t, "fig3")
	idx := byName(t, out)
	noRes := out.Summaries[idx["NoRes"]]
	util := out.Summaries[idx["ResSusUtil"]]
	rand := out.Summaries[idx["ResSusRand"]]
	// NoRes has no rescheduling waste but carries all the suspend time.
	if noRes.ReschedComp != 0 {
		t.Errorf("NoRes rescheduling waste = %v, want 0", noRes.ReschedComp)
	}
	if noRes.SuspendComp <= util.SuspendComp {
		t.Error("rescheduling should eliminate most suspend-time waste")
	}
	// Rescheduling strategies trade suspend time for a small
	// rescheduling-waste component.
	if util.ReschedComp <= 0 || rand.ReschedComp <= 0 {
		t.Error("rescheduling strategies should pay some rescheduling waste")
	}
	if util.ReschedComp > noRes.SuspendComp {
		t.Error("rescheduling waste should be far smaller than the suspend time it removes")
	}
}

func TestFig4YearTimelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("year-long run")
	}
	out := runExperiment(t, "fig4")
	utilPts := out.Series["utilization_pct"]
	suspPts := out.Series["suspended_jobs"]
	if len(utilPts) < 100 || len(suspPts) < 100 {
		t.Fatalf("series too short: %d, %d bins", len(utilPts), len(suspPts))
	}
	// Paper: "overall system utilization averages around 40%, and is
	// typically in the range of 20%-60%".
	var sum float64
	var n int
	for _, p := range utilPts {
		if p.Y > 0 {
			sum += p.Y
			n++
		}
	}
	mean := sum / float64(n)
	if mean < 25 || mean > 60 {
		t.Errorf("mean utilization = %.1f%%, want ~40%%", mean)
	}
	// Suspension spikes: peak far above typical level.
	var peak, total float64
	for _, p := range suspPts {
		if p.Y > peak {
			peak = p.Y
		}
		total += p.Y
	}
	avg := total / float64(len(suspPts))
	if peak < 5*avg {
		t.Errorf("suspension peak %.0f not spiky vs average %.1f (paper: sudden spikes)", peak, avg)
	}
}

func TestHighSuspensionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	table1 := runExperiment(t, "table1")
	out := runExperiment(t, "highsusp")
	i1, ih := byName(t, table1), byName(t, out)
	base := table1.Summaries[i1["NoRes"]]
	noRes := out.Summaries[ih["NoRes"]]
	util := out.Summaries[ih["ResSusUtil"]]
	// Engineered trace suspends a much larger fraction of jobs.
	if noRes.SuspendRate < 2*base.SuspendRate {
		t.Errorf("high-suspension rate = %.1f%% vs base %.1f%%; want >=2x", noRes.SuspendRate, base.SuspendRate)
	}
	// "A higher fraction of suspended jobs naturally leads to a larger
	// impact on the average completion time of all jobs" (§3.2.1).
	if util.AvgCTAll >= noRes.AvgCTAll {
		t.Error("rescheduling should reduce AvgCT(all) under high suspension")
	}
	if util.AvgCTSuspended > 0.7*noRes.AvgCTSuspended {
		t.Errorf("AvgCT(susp) cut = %.0f vs %.0f; want >=30%% (paper 44%%)",
			util.AvgCTSuspended, noRes.AvgCTSuspended)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	a := runExperiment(t, "table1")
	b := runExperiment(t, "table1")
	for i := range a.Summaries {
		if a.Summaries[i] != b.Summaries[i] {
			t.Fatalf("strategy %s differs across identical runs", a.Names[i])
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1.0 || o.Seed == 0 {
		t.Fatalf("defaults = %+v", o)
	}
}
