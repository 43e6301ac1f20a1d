// Command perfbench is the repository benchmark. For a named workload
// it synthesizes the inputs from a seed through the scenarios' Trace and
// Platform functions (the set-up), runs every cell through experiments.Matrix.Run
// on the default engine, summarizes and renders the results through
// metrics and report, checks every cell's outcome, and repeats for the
// given number of seconds. It prints every metric by name and unit;
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 45, "failed": 0, "metrics": {"wall_s": {"value": 4.8, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, from untraced
// iterations. With -trace 1 the workload is re-run once with spans
// around every call the benchmark makes, the matrix runner's run log
// and metrics registry, and runtime/metrics; the metrics are then the
// per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netbatch/internal/experiments"
	"netbatch/internal/sim"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    float64 // 0 = the workload's default
	out      string  // Chrome trace and checkpoint temp dirs go here
	record   bool
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	attempted, failed int
	metrics           []metric
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: all_experiments, year6_fed or year6_ckpt")
	flag.Uint64Var(&cfg.seed, "seed", 42, "seed the workload's inputs are synthesized from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&traced, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced re-run")
	flag.Float64Var(&cfg.scale, "scale", 0, "override the workload's scale (reference digests apply only at the default)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for the Chrome trace and the checkpoint temp dirs")
	flag.BoolVar(&cfg.record, "record", false, "print every cell's digest, for reference.json")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.traced = traced == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 5

// run measures one workload and writes the human-readable report to
// stdout; the caller prints the final JSON line.
func run(cfg config, stdout io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	scale := w.scale
	if cfg.scale > 0 {
		scale = cfg.scale
	}
	b, err := newBench(w, cfg.seed, scale, refs, tmp)
	if err != nil {
		return nil, err
	}
	env := newEnvRecord()

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		budget /= 2 // the rest is for the traced iteration
	}
	its, err := b.loop(budget)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, len(its))
	for i, it := range its {
		setups[i] = it.setupS
	}
	for len(setups) < minSetups {
		runtime.GC()
		t0 := time.Now()
		if _, err := b.setup(nil, -1); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := &result{}
	for _, it := range its {
		res.attempted += it.attempted
		res.failed += it.failed
	}
	if !cfg.record {
		a, f, err := canary(w, refs, tmp)
		if err != nil {
			return nil, err
		}
		res.attempted += a
		res.failed += f
		fmt.Fprintf(stdout, "canary: %d cells at seed 42 scale %g, %d failed\n", a, canaryScale, f)
	}
	wall := median(pick(its, func(it *iteration) float64 { return it.wallS }))
	if !cfg.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.metrics = []metric{
			{"wall_s", "s", wall},
			{"setup_s", "s", median(setups)},
			{"cpu_s", "s", median(pick(its, func(it *iteration) float64 { return it.cpuS }))},
			{"peak_rss_mb", "MB", rss},
			{"jobs_per_s", "1/s", median(pick(its, func(it *iteration) float64 { return float64(it.jobs) / it.wallS }))},
		}
	} else {
		pr := newProbe()
		it, err := b.iterate(pr)
		if it != nil && it.ckptDir != "" {
			defer os.RemoveAll(it.ckptDir)
		}
		if err != nil {
			return nil, err
		}
		res.attempted += it.attempted
		res.failed += it.failed
		var pres probeResult
		if w.ckpt {
			if pres, err = b.checkpointProbes(it, pr); err != nil {
				return nil, err
			}
			res.attempted += pres.attempted
			res.failed += pres.failed
		}
		spans := pr.t.snapshot()
		// resume_s and ckpt_mb are end-to-end figures of the checkpoint
		// workload alone; they are reported here, from the untraced
		// iterations, because BENCHMARK.json gates only metrics that
		// every workload has.
		res.metrics = append(layerMetrics(w, it, spans, wall, pres),
			metric{"ckpt.resume_s", "s", median(pick(its, func(it *iteration) float64 { return it.resumeS }))},
			metric{"ckpt.mb", "MB", float64(its[0].ckptBytes) / (1 << 20)})
		path := filepath.Join(cfg.out, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, cfg.seed))
		if err := writeTraceFile(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "chrome trace: %s (%d spans)\n", path, len(spans))
		printSelfTimes(stdout, selfTimes(spans, it.span.run), spans[it.span.run])
	}

	env.End = sampleHost()
	envJSON, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	fmt.Fprintf(stdout, "workload %s seed %d scale %g: %d untraced iterations, %d set-ups, reference digests: %v\n",
		w.name, cfg.seed, b.scale, len(its), len(setups), b.refs != nil)
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %-28s %14.6f %s\n", m.name, m.value, m.unit)
	}
	if w.ckpt && !cfg.traced {
		// resume_s and ckpt_mb exist only on this workload, so they are
		// printed here rather than gated in BENCHMARK.json.
		fmt.Fprintf(stdout, "metric %-28s %14.6f %s\n", "resume_s", median(pick(its, func(it *iteration) float64 { return it.resumeS })), "s")
		fmt.Fprintf(stdout, "metric %-28s %14.6f %s\n", "ckpt_mb", float64(its[0].ckptBytes)/(1<<20), "MB")
	}
	printSpread(stdout, "wall_s", pick(its, func(it *iteration) float64 { return it.wallS }))
	printSpread(stdout, "setup_s", setups)
	if cfg.record {
		d, err := json.Marshal(its[0].digests)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "digests %s\n", d)
	}
	return res, nil
}

func newBench(w *workload, seed uint64, scale float64, refs references, tmp string) (*bench, error) {
	plans, err := w.plans()
	if err != nil {
		return nil, err
	}
	return &bench{
		w: w, seed: seed, scale: scale, tmp: tmp, plans: plans,
		refs: refs.lookup(w, seed, scale), first: map[string]string{},
	}, nil
}

// canaryScale is the scale of the canary run.
const canaryScale = 0.01

// canary runs the workload once more, untimed, at canaryScale and seed
// 42, and compares every cell with its recorded digest. A run at an
// unrecorded seed can only check that the program agrees with itself;
// the canary also checks it against the recorded outcome.
func canary(w *workload, refs references, tmp string) (attempted, failed int, err error) {
	b, err := newBench(w, 42, canaryScale, refs, tmp)
	if err != nil {
		return 0, 0, err
	}
	if b.refs == nil {
		return 0, 0, fmt.Errorf("no canary digests recorded for %s", w.name)
	}
	it, err := b.iterate(nil)
	if it != nil && it.ckptDir != "" {
		if rerr := os.RemoveAll(it.ckptDir); err == nil {
			err = rerr
		}
	}
	if err != nil {
		return 0, 0, fmt.Errorf("canary: %w", err)
	}
	return it.attempted, it.failed, nil
}

// loop repeats untraced iterations while the next one, as long as the
// longest so far, still fits the budget. It always makes one.
func (b *bench) loop(budget time.Duration) ([]*iteration, error) {
	start := time.Now()
	var its []*iteration
	var longest time.Duration
	for {
		t0 := time.Now()
		it, err := b.iterate(nil)
		if it != nil && it.ckptDir != "" {
			if rerr := os.RemoveAll(it.ckptDir); err == nil {
				err = rerr
			}
		}
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		longest = max(longest, time.Since(t0))
		if time.Since(start)+longest > budget {
			return its, nil
		}
	}
}

// probeResult holds what the traced checkpoint run measures after its
// timed section: loading the newest kept snapshot, and a straight pass
// of the same cell without checkpoints.
type probeResult struct {
	loadS             float64
	straightCellS     float64
	attempted, failed int
}

// checkpointProbes measures, outside the traced timed section, what
// the checkpoint layer costs: experiments.LoadCheckpoint on the newest
// snapshot the pruning kept, and the cell run without checkpoints.
func (b *bench) checkpointProbes(it *iteration, pr *probe) (probeResult, error) {
	var res probeResult
	t := pr.t
	root := t.begin("bench.probe", b.w.name, -1)
	defer t.end(root)
	li := t.begin("ckpt.load", b.plans[0].id, root)
	t0 := time.Now()
	data, err := experiments.LoadCheckpoint(it.keptNewest)
	res.loadS = time.Since(t0).Seconds()
	t.end(li)
	if err != nil {
		return res, fmt.Errorf("load %s: %w", it.keptNewest, err)
	}
	if sim.IsDeltaSnapshot(data) {
		return res, fmt.Errorf("load %s: delta chain was not reconstructed", it.keptNewest)
	}
	straight := &iteration{digests: map[string]string{}, span: traceSpans{timed: root}}
	b.pass(straight, b.plans[0], it.ins[0], b.options(pr), pr, b.plans[0].id+"/straight", nil)
	res.attempted, res.failed = straight.attempted, straight.failed
	spans := t.snapshot()
	for _, s := range spans {
		if s.Name == "sim.cell" && s.Parent >= 0 && spans[s.Parent].ID == b.plans[0].id+"/straight" {
			res.straightCellS += s.Args["wall_ms"] / 1e3
		}
	}
	return res, nil
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func printResult(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func pick(its []*iteration, f func(*iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printSpread reports a timing's sample count and range next to its
// median.
func printSpread(w io.Writer, name string, xs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	fmt.Fprintf(w, "samples %s n=%d min=%.4f median=%.4f max=%.4f in order %.4f\n", name, len(s), s[0], median(s), s[len(s)-1], xs)
}
