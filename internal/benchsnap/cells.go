package benchsnap

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/experiments"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

// Row is one canonical cell: the name it is recorded under and its
// benchmark body.
type Row struct {
	Name string
	Run  func(*testing.B) error
}

// Table returns the canonical cells at scale, in recording order.
// Making the table builds nothing: a row that simulates synthesizes
// its trace and platform on its first run, before its timer starts,
// and keeps them for later runs. The simulation cells keep the "/serial" suffix they
// had when a second engine was recorded beside each, so -trend stays
// continuous.
func Table(scale float64) []Row {
	latency := func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} }
	multisite := prebuilt(experiments.MultiSiteScenario("bench-multisite", 3, 0, latency), scale)
	rows := []Row{
		{"multisite_week/serial", simRow(multisite, scale)},
		{"faults_week/serial", simRow(prebuilt(
			experiments.FaultScenario("bench-faults", 3, sim.VictimRequeue), scale), scale)},
		// The 6-site metro federation: cross-site RTTs of 5–25 minutes.
		{"metro6_week/serial", simRow(prebuilt(
			experiments.MultiSiteScenario("bench-metro6", 6, 0, latency), scale), scale)},
		// The ROADMAP north-star cell: a simulated year on the 6-site
		// federation, at the reduced multiSiteYearScale so a pass stays
		// in seconds.
		{"year6/serial", simRow(prebuilt(
			experiments.MultiSiteYearScenario("bench-year6", 6, latency), scale), scale)},
	}
	rows = append(rows, checkpointRows(multisite, scale)...)
	return append(rows,
		traceRow("trace/week", experiments.WeekScenario("bench-trace-week", 1, 0,
			func() sched.InitialScheduler { return sched.NewRoundRobin() }), scale),
		traceRow("trace/year6", experiments.MultiSiteYearScenario("bench-trace-year6", 6, latency), scale),
		Row{"eventq/schedule_pop", infallible(QueueScheduleAndPop)},
		Row{"eventq/cancel", infallible(QueueCancel)},
		Row{"eventq/kind_chains", infallible(QueueKindChains)},
	)
}

// infallible adapts a benchmark body that cannot fail to a row.
func infallible(fn func(*testing.B)) func(*testing.B) error {
	return func(b *testing.B) error {
		fn(b)
		return nil
	}
}

// latencyPolicy is the rescheduling policy of every simulation cell.
var latencyPolicy = experiments.PolicyFactory{
	Name: "ResSusWaitLatency",
	New:  func(uint64) core.Policy { return core.NewResSusWaitLatency() },
}

// Prebuild synthesizes sc's seed-42 trace and its platform at scale
// and returns sc serving both from memory, so a timed loop is
// simulation only.
func Prebuild(sc experiments.Scenario, scale float64) (experiments.Scenario, error) {
	tr, err := sc.Trace(42, scale)
	if err != nil {
		return sc, err
	}
	plat, err := sc.Platform(scale)
	if err != nil {
		return sc, err
	}
	sc.Trace = func(uint64, float64) (*trace.Trace, error) { return tr, nil }
	sc.Platform = func(float64) (*cluster.Platform, error) { return plat, nil }
	return sc, nil
}

// prebuilt returns sc prebuilt at scale on its first call, and the
// same scenario on every later one.
func prebuilt(sc experiments.Scenario, scale float64) func() (experiments.Scenario, error) {
	return sync.OnceValues(func() (experiments.Scenario, error) { return Prebuild(sc, scale) })
}

// simRow runs the one-cell matrix of a prebuilt scenario under
// latencyPolicy, on one worker, as the experiments runner would.
func simRow(get func() (experiments.Scenario, error), scale float64) func(*testing.B) error {
	return func(b *testing.B) error {
		sc, err := get()
		if err != nil {
			return err
		}
		b.ResetTimer()
		return RunCell(b, sc, latencyPolicy, experiments.Options{Seed: 42, Scale: scale, Jobs: 1})
	}
}

// RunCell runs the one-cell matrix (sc, pf) b.N times under opts. It
// reports the cell's avgWCT and avgCTsusp, its job count, and
// retainedB/job: the heap its Result still holds after a full
// collection, less the heap before the loop, per job. That is what
// each cell a MatrixResult holds costs; informational, not gated.
func RunCell(b *testing.B, sc experiments.Scenario, pf experiments.PolicyFactory, opts experiments.Options) error {
	m := experiments.Matrix{Scenarios: []experiments.Scenario{sc}, Policies: []experiments.PolicyFactory{pf}}
	b.StopTimer()
	before := liveHeap()
	b.StartTimer()
	var mr *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		var err error
		if mr, err = m.Run(opts); err != nil {
			return err
		}
	}
	b.StopTimer()
	cell := mr.At(0, 0, 0)
	jobs := float64(len(cell.Result.Jobs))
	b.ReportMetric((float64(liveHeap())-float64(before))/jobs, "retainedB/job")
	runtime.KeepAlive(mr)
	b.ReportMetric(cell.Summary.AvgWCT, "avgWCT")
	b.ReportMetric(cell.Summary.AvgCTSuspended, "avgCTsusp")
	b.ReportMetric(jobs, "jobs")
	return nil
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// traceRow times trace synthesis alone.
func traceRow(name string, sc experiments.Scenario, scale float64) Row {
	return Row{name, func(b *testing.B) error {
		var tr *trace.Trace
		for i := 0; i < b.N; i++ {
			var err error
			if tr, err = sc.Trace(42, scale); err != nil {
				return err
			}
		}
		b.ReportMetric(float64(len(tr.Jobs)), "jobs")
		return nil
	}}
}

// checkpointRows is the checkpoint set on the multi-site busy week at
// a one-simulated-day cadence, the experiments default:
//
//   - baseline: the plain run, the denominator of capture's
//     pctPerCkpt;
//   - capture: a full snapshot every day. It reports snapshots/run,
//     KB/snapshot and, when baseline ran before it, pctPerCkpt: one
//     capture's cost as a percentage of the plain run (target under
//     ~5%);
//   - capture_delta: seven of every eight snapshots as binary deltas
//     (CheckpointKeyframe=8). It reports KB/delta and pctOfFull, a
//     delta's size as a percentage of a full snapshot's;
//   - resume: decode the run's mid-point snapshot, rebuild the state
//     and simulate the remaining half.
//
// capture_delta and resume read one untimed full-cadence run: its
// mid-point snapshot and its mean snapshot size.
func checkpointRows(get func() (experiments.Scenario, error), scale float64) []Row {
	const day = 1440.0
	// run simulates the prebuilt scenario once, tune adjusting a fresh
	// config.
	run := func(tune func(*sim.Config)) error {
		sc, err := get()
		if err != nil {
			return err
		}
		// A prebuilt scenario serves what it built; neither call fails.
		tr, _ := sc.Trace(42, scale)
		plat, _ := sc.Platform(scale)
		cfg := sim.Config{Platform: plat, Initial: sc.NewInitial(), Policy: latencyPolicy.New(0)}
		tune(&cfg)
		_, err = sim.Run(cfg, tr.Jobs)
		return err
	}
	// daily runs the cell with a full snapshot every simulated day and
	// appends the snapshots to cks.
	daily := func(cks []sim.Checkpoint) ([]sim.Checkpoint, error) {
		err := run(func(cfg *sim.Config) {
			cfg.CheckpointEvery = day
			cfg.CheckpointSink = func(c sim.Checkpoint) error {
				cks = append(cks, c)
				return nil
			}
		})
		return cks, err
	}
	meanBytes := func(cks []sim.Checkpoint) float64 {
		var n int
		for _, c := range cks {
			n += len(c.Data)
		}
		return float64(n) / float64(len(cks))
	}
	type fullRun struct {
		mid       []byte
		bytesEach float64
	}
	reference := sync.OnceValues(func() (fullRun, error) {
		cks, err := daily(nil)
		if err == nil && len(cks) == 0 {
			err = fmt.Errorf("no snapshot captured")
		}
		if err != nil {
			return fullRun{}, err
		}
		return fullRun{cks[len(cks)/2].Data, meanBytes(cks)}, nil
	})
	nsPerOp := func(b *testing.B) float64 { return float64(b.Elapsed().Nanoseconds()) / float64(b.N) }

	var baselineNs float64
	baseline := func(b *testing.B) error {
		if _, err := get(); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(func(*sim.Config) {}); err != nil {
				return err
			}
		}
		baselineNs = nsPerOp(b)
		return nil
	}
	capture := func(b *testing.B) error {
		if _, err := get(); err != nil {
			return err
		}
		b.ResetTimer()
		// Each run keeps its snapshots, as a caller collecting them
		// would.
		var cks []sim.Checkpoint
		for i := 0; i < b.N; i++ {
			var err error
			if cks, err = daily(cks[:0]); err != nil {
				return err
			}
		}
		perRun := float64(len(cks))
		b.ReportMetric(perRun, "snapshots/run")
		b.ReportMetric(meanBytes(cks)/1024, "KB/snapshot")
		if baselineNs > 0 {
			b.ReportMetric(100*(nsPerOp(b)-baselineNs)/perRun/baselineNs, "pctPerCkpt")
		}
		return nil
	}
	captureDelta := func(b *testing.B) error {
		ref, err := reference()
		if err != nil {
			return err
		}
		b.ResetTimer()
		var count, bytes int
		for i := 0; i < b.N; i++ {
			err := run(func(cfg *sim.Config) {
				cfg.CheckpointEvery = day
				cfg.CheckpointKeyframe = 8
				cfg.CheckpointSink = func(c sim.Checkpoint) error {
					if c.Delta {
						count++
						bytes += len(c.Data)
					}
					return nil
				}
			})
			if err != nil {
				return err
			}
		}
		if count > 0 {
			perDelta := float64(bytes) / float64(count)
			b.ReportMetric(perDelta/1024, "KB/delta")
			b.ReportMetric(100*perDelta/ref.bytesEach, "pctOfFull")
		}
		return nil
	}
	resume := func(b *testing.B) error {
		ref, err := reference()
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(func(cfg *sim.Config) { cfg.ResumeFrom = ref.mid }); err != nil {
				return err
			}
		}
		return nil
	}
	return []Row{
		{"checkpoint/baseline", baseline},
		{"checkpoint/capture", capture},
		{"checkpoint/capture_delta", captureDelta},
		{"checkpoint/resume", resume},
	}
}
