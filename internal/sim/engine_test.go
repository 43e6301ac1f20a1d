package sim

// Engine-identity helpers plus the partitioned engine's failure-law
// tests. The optimistic engine must produce results bit-identical to
// the serial reference loop — same job records (hex-float compare),
// same series, same counters, same event count — and must fail exactly
// when the serial loop fails. A mid-run cancellation test pins prompt
// return and goroutine hygiene.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"time"

	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
	"netbatch/internal/stats"
)

// fingerprint renders every observable float of a Result in hex so
// comparison is bit-exact, not approximate.
func fingerprint(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan=%x events=%d pre=%d restarts=%d mig=%d waitmoves=%d xsub=%d xmove=%d\n",
		res.Makespan, res.Events, res.Preemptions, res.Restarts, res.Migrations,
		res.WaitMoves, res.CrossSiteSubmits, res.CrossSiteMoves)
	fmt.Fprintf(&sb, "crashes=%d maint=%d kills=%d requeues=%d worklost=%x downcm=%x\n",
		res.Crashes, res.MaintWindows, res.Kills, res.Requeues, res.WorkLost, res.DownCoreMinutes)
	for _, j := range res.Jobs {
		a := j.Acct()
		fmt.Fprintf(&sb, "job %d: pool=%d mach=%d first=%x done=%x w=%x s=%x we=%x ro=%x e=%x sus=%d re=%d wr=%d k=%d\n",
			j.Spec.ID, j.Pool, j.Machine, j.FirstStart, j.Completed,
			a.Wait, a.Suspend, a.WastedExec, a.RescheduleOverhead, a.Exec,
			a.Suspensions, a.Restarts, a.WaitReschedules, a.Kills)
	}
	series := func(name string, ts *stats.TimeSeries) {
		if ts == nil {
			fmt.Fprintf(&sb, "%s: nil\n", name)
			return
		}
		fmt.Fprintf(&sb, "%s:", name)
		for _, p := range ts.Points() {
			fmt.Fprintf(&sb, " %x/%x", p.X, p.Y)
		}
		sb.WriteString("\n")
	}
	series("util", res.Util)
	series("susp", res.Suspended)
	series("wait", res.Waiting)
	for s, ts := range res.SiteUtil {
		series(fmt.Sprintf("site%d", s), ts)
	}
	return sb.String()
}

// federatedInitial builds the two-level scheduler used by the
// multi-site experiment cells.
func federatedInitial(sel sched.SiteSelector) sched.InitialScheduler {
	return sched.NewFederated(sel, func() sched.InitialScheduler {
		return sched.NewRoundRobin()
	})
}

func multiSitePolicyForIndex(i int, seed uint64) core.Policy {
	switch i % 4 {
	case 0:
		return core.NewNoRes()
	case 1:
		return core.NewResSusWaitUtil()
	case 2:
		return core.NewResSusWaitRand(seed)
	default:
		return core.NewResSusWaitLatency()
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\nserial:     %.200s\noptimistic: %.200s", i+1, x, y)
		}
	}
	return "(no diff)"
}

// TestParallelFallbackSingleSite pins the degenerate path: a
// single-site platform (no partitions to run) is not parallelizable, so
// Engine=optimistic must take the serial kernel and still produce
// identical results.
func TestParallelFallbackSingleSite(t *testing.T) {
	p := miniPlatform(t, 2, 2)
	specs := []job.Spec{
		lowJob(1, 0, 100, 0, 1),
		lowJob(2, 1.5, 80, 0, 1),
		highJob(3, 2.5, 50, 0),
	}
	base := baseConfig(p)
	full, err := base.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorld(full, specs)
	if err != nil {
		t.Fatal(err)
	}
	if w.parallelizable() {
		t.Fatal("single-site platform reported parallelizable")
	}
	serialRes, err := Run(base, specs)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.Engine = EngineOptimistic
	optRes, err := Run(opt, specs)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(serialRes) != fingerprint(optRes) {
		t.Fatal("single-site optimistic fallback differs from serial")
	}
}

// TestParallelMaxTimeParity pins the failure law shared by both
// engines: a run whose makespan fits under MaxTime succeeds on both,
// and one that does not fails on both — even when the cap falls just
// past the makespan, where the optimistic engine still holds inert
// post-completion events the serial loop never pops.
func TestParallelMaxTimeParity(t *testing.T) {
	for _, seed := range []uint64{57, 58, 59, 7} {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(engine string, maxTime float64) Config {
			return Config{
				Platform:          plat,
				Initial:           federatedInitial(sched.LocalityFirst{}),
				Policy:            core.NewResSusWaitUtil(),
				Engine:            engine,
				MaxTime:           maxTime,
				CheckConservation: true,
			}
		}
		base, err := Run(mk(EngineSerial, 0), specs)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		for _, maxTime := range []float64{
			base.Makespan + 0.15, // just past the last completion
			base.Makespan * 0.75, // clearly too small
		} {
			sres, serr := Run(mk(EngineSerial, maxTime), specs)
			pres, perr := Run(mk(EngineOptimistic, maxTime), specs)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("seed %d MaxTime %v: engines disagree: serial=%v optimistic=%v",
					seed, maxTime, serr, perr)
			}
			if serr == nil && !pres.ambiguousTies && fingerprint(sres) != fingerprint(pres) {
				t.Fatalf("seed %d MaxTime %v: results diverge", seed, maxTime)
			}
		}
	}
}

// TestParallelCancelNoLeak cancels an optimistic run mid-flight, with
// the burst workers running: Run must return the context error
// promptly and leave no shard goroutines behind.
func TestParallelCancelNoLeak(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	r := rand.New(rand.NewPCG(7, 11))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	// Enough work per job that the run spans many events.
	for i := range specs {
		specs[i].Work *= 50
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Platform: plat,
		Initial:  federatedInitial(sched.LatencyPenalizedUtil{}),
		Policy:   core.NewResSusWaitUtil(),
		Engine:   EngineOptimistic,
		Context:  ctx,
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, specs)
		done <- err
	}()
	// Let the run get going, then pull the plug.
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// A short run may legitimately finish before the cancel lands.
		if err != nil && !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("optimistic run did not return promptly after cancellation")
	}
	// Burst workers are run-scoped; none may survive the run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
