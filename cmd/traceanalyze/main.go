// Command traceanalyze summarizes a JSONL job trace: counts, priority
// mix, service-demand distribution, arrival-rate timeline, and offered
// utilization against a platform size — the §2 trace-characterization
// workflow of the paper.
//
// Usage:
//
//	traceanalyze -trace trace.jsonl [-cores 19200] [-bin 100]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"netbatch/internal/job"
	"netbatch/internal/report"
	"netbatch/internal/stats"
	"netbatch/internal/trace"
)

// maxBins bounds the arrival timelines: -bin must not split the
// trace's horizon into more bins than this.
const maxBins = 1 << 20

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "traceanalyze:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		traceFile = flag.String("trace", "", "JSONL trace file (required)")
		cores     = flag.Int("cores", 19200, "platform core count for offered-utilization estimate")
		bin       = flag.Float64("bin", 100, "timeline bin width, minutes")
	)
	flag.Parse()
	if err := checkFlags(*bin, *cores); err != nil {
		return err
	}
	if *traceFile == "" {
		return fmt.Errorf("-trace is required")
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	if err := checkTrace(*traceFile, tr, *bin); err != nil {
		return err
	}

	counts := tr.CountByPriority()
	fmt.Printf("jobs: %d (%d low, %d high) over %.0f minutes\n",
		len(tr.Jobs), counts[job.PriorityLow], counts[job.PriorityHigh], tr.Horizon())
	fmt.Printf("total work: %.0f core-minutes; offered utilization on %d cores: %.1f%%\n",
		tr.TotalWork(), *cores, tr.OfferedUtilization(*cores)*100)

	works := make([]float64, 0, len(tr.Jobs))
	var mem stats.Mean
	taskJobs := 0
	for i := range tr.Jobs {
		works = append(works, tr.Jobs[i].Work)
		mem.Add(float64(tr.Jobs[i].MemMB))
		if tr.Jobs[i].TaskID != 0 {
			taskJobs++
		}
	}
	cdf := stats.NewCDF(works)
	tbl := report.CDFTable("service demand distribution (minutes)", cdf)
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("mean memory requirement: %.0f MB; jobs in multi-job tasks: %d (%.1f%%)\n",
		mem.Mean(), taskJobs, float64(taskJobs)/float64(len(tr.Jobs))*100)

	lowTS := stats.NewTimeSeries(*bin)
	highTS := stats.NewTimeSeries(*bin)
	for i := range tr.Jobs {
		if tr.Jobs[i].Priority == job.PriorityHigh {
			highTS.Add(tr.Jobs[i].Submit, 1)
		} else {
			lowTS.Add(tr.Jobs[i].Submit, 1)
		}
	}
	fmt.Printf("low-priority arrivals:  %s\n", report.Sparkline(lowTS.Points(), 72))
	fmt.Printf("high-priority arrivals: %s\n", report.Sparkline(highTS.Points(), 72))
	return nil
}

// checkFlags rejects out-of-range flags before the trace is read.
func checkFlags(bin float64, cores int) error {
	switch {
	case !(bin > 0) || math.IsInf(bin, 1):
		return fmt.Errorf("-bin must be finite and positive, got %v", bin)
	case cores < 1:
		return fmt.Errorf("-cores must be at least 1, got %d", cores)
	}
	return nil
}

// checkTrace rejects a trace that holds no jobs, and a -bin that would
// split its horizon into more than maxBins timeline bins; a timeline
// holds one bin per started bin width up to the last submission.
func checkTrace(path string, tr *trace.Trace, bin float64) error {
	if len(tr.Jobs) == 0 {
		return fmt.Errorf("-trace %s holds no jobs", path)
	}
	horizon := tr.Horizon()
	if n := math.Floor(horizon/bin) + 1; n > maxBins {
		return fmt.Errorf("-bin %v makes %.0f bins over the trace's %.0f-minute horizon, more than %d",
			bin, n, horizon, maxBins)
	}
	return nil
}
