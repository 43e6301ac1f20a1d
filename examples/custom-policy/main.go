// Custom policy: the core.Policy interface makes rescheduling
// strategies pluggable. This example implements ResSusQueue — a
// strategy the paper suggests as future work ("the use of multiple
// metrics (e.g., utilization, queue lengths ...) in combination for
// making rescheduling decisions", §5) — which picks the alternate pool
// by a combined utilization + queue-backlog score, and compares it with
// the paper's strategies on the same trace.
//
// Run with:
//
//	go run ./examples/custom-policy
package main

import (
	"fmt"
	"os"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/metrics"
	"netbatch/internal/report"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

// ResSusQueue restarts suspended (and stalled waiting) jobs at the
// eligible pool minimizing utilization + queue backlog per core. The
// queue term avoids the trap ResSusUtil can fall into: a pool can be
// momentarily under-utilized yet have a deep backlog. The simulator
// passes each decision the job's eligible pools (the candidates with a
// machine that meets its static requirements), so the policy never
// checks eligibility itself.
type ResSusQueue struct {
	// Threshold is the wait-queue stall threshold, minutes.
	Threshold float64
}

var _ core.Policy = ResSusQueue{}

// Name implements core.Policy.
func (ResSusQueue) Name() string { return "ResSusQueue" }

// score is the pool badness: utilization plus queued jobs per core.
func score(view sched.PoolView, pool int) float64 {
	return view.Utilization(pool) + float64(view.QueueLen(pool))/float64(view.PoolCores(pool))
}

// pick returns the best-scoring eligible alternate, if strictly better
// than the current pool.
func (ResSusQueue) pick(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	best, bestScore := -1, 0.0
	for _, p := range eligible {
		if p == j.Pool {
			continue
		}
		if s := score(view, p); best == -1 || s < bestScore {
			best, bestScore = p, s
		}
	}
	if best == -1 || (j.Pool >= 0 && bestScore >= score(view, j.Pool)) {
		return 0, false
	}
	return best, true
}

// OnSuspend implements core.Policy.
func (q ResSusQueue) OnSuspend(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	return q.pick(j, eligible, view)
}

// WaitThreshold implements core.Policy.
func (q ResSusQueue) WaitThreshold() float64 { return q.Threshold }

// OnWaitTimeout implements core.Policy.
func (q ResSusQueue) OnWaitTimeout(j *job.Job, eligible []int, view sched.PoolView) (int, bool) {
	return q.pick(j, eligible, view)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "custom-policy:", err)
		os.Exit(1)
	}
}

func run() error {
	platCfg := cluster.DefaultNetBatchConfig()
	platCfg.Scale = 0.05
	plat, err := cluster.NewNetBatchPlatform(platCfg)
	if err != nil {
		return err
	}
	// The high-load variant stresses queues, where the combined metric
	// should shine.
	plat, err = plat.ScaleCapacity(0.5)
	if err != nil {
		return err
	}
	tr, err := trace.Generate(trace.ScaleRates(trace.WeekNormal(7), 0.05))
	if err != nil {
		return err
	}

	policies := []core.Policy{
		core.NewNoRes(),
		core.NewResSusWaitUtil(),
		ResSusQueue{Threshold: core.DefaultWaitThreshold},
	}
	var names []string
	var sums []metrics.Summary
	for _, p := range policies {
		res, err := sim.Run(sim.Config{
			Platform: plat,
			Initial:  sched.NewRoundRobin(),
			Policy:   p,
		}, tr.Jobs)
		if err != nil {
			return err
		}
		sum, err := metrics.Summarize(res.Jobs)
		if err != nil {
			return err
		}
		names = append(names, p.Name())
		sums = append(sums, sum)
	}
	tbl, err := report.PaperTable("custom queue-aware policy vs paper strategies (high load)", names, sums)
	if err != nil {
		return err
	}
	return tbl.Render(os.Stdout)
}
