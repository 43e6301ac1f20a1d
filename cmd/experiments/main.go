// Command experiments regenerates the paper's tables and figures
// through the declarative matrix runner.
//
// Usage:
//
//	experiments [-run table1,fig2,...] [-scale 1.0] [-seed 42]
//	            [-seeds N] [-jobs N] [-timeout 30m] [-out DIR]
//	            [-overhead MIN]
//	            [-timeline out.json] [-runlog run.jsonl] [-progress 1s]
//
// Without -run, every registered experiment executes. Each experiment
// plans a (scenario × policy × seed) matrix; the selection's distinct
// matrices run once, on one pool of -jobs workers (default: one per
// CPU), then each experiment renders in selection order under a header
// giving the run's elapsed time. Results are identical for every -jobs
// value. With -seeds N > 1, every cell is replicated across N derived
// seeds and tables report mean ± 95% confidence intervals. -timeout
// bounds the whole run: on expiry (or Ctrl-C) in-flight simulations
// abort, the experiments whose cells all finished print, up to the
// first that did not, and the command fails. With -out, each
// experiment also writes its tables and series as CSV files into DIR.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"netbatch/internal/experiments"
	"netbatch/internal/obs"
	"netbatch/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		list     = flag.Bool("list", false, "list registered experiments, then exit")
		runIDs   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		scale    = flag.Float64("scale", 1.0, "platform+workload scale (1.0 = paper scale)")
		seed     = flag.Uint64("seed", 42, "base random seed for trace generation and policies")
		seeds    = flag.Int("seeds", 1, "seed replicates per cell; >1 reports mean ± 95% CI")
		jobs     = flag.Int("jobs", 0, "max concurrent simulations (0 = one per CPU)")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = none)")
		outDir   = flag.String("out", "", "directory for CSV output (optional)")
		overhead = flag.Float64("overhead", 0, "reschedule transfer overhead in minutes")

		ckptDir      = flag.String("checkpoint-dir", "", "directory for per-cell simulation checkpoints; enables checkpointing")
		ckptEvery    = flag.Float64("checkpoint-every", 0, "checkpoint cadence in simulated minutes (default: 1440 = one simulated day)")
		ckptKeyframe = flag.Int("checkpoint-keyframe", 0, "emit every Nth checkpoint full and the rest as binary deltas (.dckpt) against the previous one; 0 or 1 = all full")
		resume       = flag.Bool("resume", false, "resume each cell from its checkpoint in -checkpoint-dir (bit-identical results; incompatible checkpoints restart from t=0)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		traceFile  = flag.String("trace", "", "write a runtime execution trace of the run to this file")

		timeline = flag.String("timeline", "", "write a timeline of every cell (one \"run\" span per simulation, plus checkpoint captures) as Chrome trace_event JSON to this file (load in Perfetto / chrome://tracing)")
		runlog   = flag.String("runlog", "", "stream per-cell run telemetry as JSONL records to this file (\"-\" = stderr)")
		progress = flag.Duration("progress", 0, "per-cell progress cadence (0 = 1s when -runlog is set, else mirror nothing); also mirrors to stderr without -runlog")
	)
	flag.Parse()
	if err := checkFlags(numericFlags{
		scale: *scale, seed: *seed, seeds: *seeds, jobs: *jobs, checkpointEvery: *ckptEvery,
		checkpointKeyframe: *ckptKeyframe, progress: *progress, timeout: *timeout,
	}); err != nil {
		return err
	}

	stopProf, err := startProfiling(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		return err
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		return printRegistry(os.Stdout)
	}
	ids := experiments.IDs()
	if *runIDs != "" {
		ids = strings.Split(*runIDs, ",")
	}
	opts := experiments.Options{
		Seed:               *seed,
		Seeds:              *seeds,
		Scale:              *scale,
		Jobs:               *jobs,
		Overhead:           *overhead,
		Context:            ctx,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		CheckpointKeyframe: *ckptKeyframe,
		Resume:             *resume,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	flush, err := armObservability(*timeline, *runlog, *progress, &opts)
	if err != nil {
		return err
	}
	// Flush telemetry on every exit path — a partial timeline of an
	// aborted run is exactly what the flags are for.
	defer func() {
		if ferr := flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	es := make([]experiments.Experiment, len(ids))
	plans := make([]experiments.Matrix, len(ids))
	for i, id := range ids {
		if es[i], err = experiments.Get(strings.TrimSpace(id)); err != nil {
			return fmt.Errorf("%w\nrun with -list to see the registered scenarios", err)
		}
		plans[i] = es[i].Plan(opts)
	}
	start := time.Now()
	results, runErr := experiments.RunAll(plans, opts)
	for i, e := range es {
		if results == nil || results[i] == nil {
			return fmt.Errorf("%s: %w", e.ID, runErr)
		}
		out, err := e.Render(results[i])
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("=== %s (%.1fs) ===\n", out.ID, time.Since(start).Seconds())
		for _, tbl := range out.Tables {
			if err := tbl.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		for _, note := range out.Notes {
			fmt.Println("  note:", note)
		}
		fmt.Println()
		if *outDir != "" {
			if err := writeCSV(*outDir, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// numericFlags are the numeric flags that experiments.Options would
// otherwise quietly replace with a default when out of range.
type numericFlags struct {
	scale              float64
	seed               uint64
	seeds, jobs        int
	checkpointEvery    float64
	checkpointKeyframe int
	progress, timeout  time.Duration
}

// checkFlags rejects out-of-range numeric flags before any cell starts.
// Zero keeps its documented default meaning for -jobs,
// -checkpoint-every, -checkpoint-keyframe, -progress and -timeout.
func checkFlags(f numericFlags) error {
	switch {
	case !(f.scale > 0) || math.IsInf(f.scale, 1):
		return fmt.Errorf("-scale must be finite and positive, got %v", f.scale)
	case f.seed == 0:
		return fmt.Errorf("-seed must be at least 1, got %d", f.seed)
	case f.seeds < 1:
		return fmt.Errorf("-seeds must be at least 1, got %d", f.seeds)
	case f.jobs < 0:
		return fmt.Errorf("-jobs must not be negative, got %d", f.jobs)
	case f.checkpointEvery < 0:
		return fmt.Errorf("-checkpoint-every must not be negative, got %v", f.checkpointEvery)
	case f.checkpointKeyframe < 0:
		return fmt.Errorf("-checkpoint-keyframe must not be negative, got %d", f.checkpointKeyframe)
	case f.progress < 0:
		return fmt.Errorf("-progress must not be negative, got %v", f.progress)
	case f.timeout < 0:
		return fmt.Errorf("-timeout must not be negative, got %v", f.timeout)
	}
	return nil
}

// armObservability wires the -timeline/-runlog/-progress flags into the
// matrix options: a shared metrics registry plus JSONL run log when
// -runlog is set, and a Chrome-trace timeline collector when -timeline
// is. The returned flush appends the final registry snapshot as a
// "metrics" record, writes the timeline JSON, and closes the run-log
// file; it is safe to call when no flag was set.
func armObservability(timeline, runlog string, progress time.Duration, opts *experiments.Options) (func() error, error) {
	var closeLog func() error
	if runlog != "" {
		w := io.Writer(os.Stderr)
		if runlog != "-" {
			f, err := os.Create(runlog)
			if err != nil {
				return nil, fmt.Errorf("runlog: %w", err)
			}
			w = f
			closeLog = f.Close
		}
		opts.RunLog = obs.NewRunLog(w)
		opts.Metrics = obs.NewRegistry()
	}
	if timeline != "" {
		opts.Trace = obs.NewTracer()
	}
	opts.ProgressEvery = progress
	flush := func() error {
		if opts.RunLog != nil {
			if err := opts.RunLog.Emit(obs.RunRecord{
				Type:    "metrics",
				Metrics: opts.Metrics.Snapshot(),
			}); err != nil {
				return fmt.Errorf("runlog: %w", err)
			}
		}
		if closeLog != nil {
			if err := closeLog(); err != nil {
				return fmt.Errorf("runlog: %w", err)
			}
		}
		if opts.Trace != nil {
			f, err := os.Create(timeline)
			if err != nil {
				return fmt.Errorf("timeline: %w", err)
			}
			if err := opts.Trace.WriteJSON(f); err != nil {
				f.Close()
				return fmt.Errorf("timeline: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("timeline: %w", err)
			}
		}
		return nil
	}
	return flush, nil
}

// printRegistry lists every registered experiment.
func printRegistry(w io.Writer) error {
	fmt.Fprintln(w, "registered experiments (-run):")
	for _, id := range experiments.IDs() {
		e, err := experiments.Get(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s %s\n", id, e.Title)
	}
	return nil
}

func writeCSV(dir string, out *experiments.Output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	for i, tbl := range out.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", out.ID, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tbl.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for name, pts := range out.Series {
		safe := strings.NewReplacer(":", "_", "/", "_").Replace(name)
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", out.ID, safe))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := report.SeriesCSV(f, safe, pts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// startProfiling arms the requested pprof/trace outputs and returns the
// teardown that flushes them. Empty paths are skipped.
func startProfiling(cpu, mem, tr string) (func(), error) {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if tr != "" {
		f, err := os.Create(tr)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}
	}
	return stop, nil
}
