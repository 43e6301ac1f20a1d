package main

import (
	"fmt"
	"io"
	"reflect"

	"netbatch/internal/cluster"
	"netbatch/internal/experiments"
	"netbatch/internal/metrics"
	"netbatch/internal/report"
	"netbatch/internal/stats"
)

// inputs are one plan's synthesized traces and platforms, with the
// matrix's scenarios frozen to them so that Matrix.Run only simulates.
type inputs struct {
	m     experiments.Matrix
	plats []*cluster.Platform
	jobs  [][]int // trace size per scenario and replicate
}

// A cellOutcome is the check of one simulated cell.
type cellOutcome struct {
	label  string
	digest string
	err    error
}

// summarized is what the metrics layer derived from one plan's matrix.
type summarized struct {
	names  []string
	reps   [][]metrics.Summary
	sites  map[int][][]metrics.SiteSummary // scenario → policy → site
	faults []metrics.FaultSummary
	cdf    *stats.CDF
}

// cellLabel names a cell the way the matrix runner's run log does.
func cellLabel(scenarioID, policy string, rep int) string {
	return fmt.Sprintf("%s/%s/r%d", scenarioID, policy, rep)
}

// summarize runs the metrics layer over every cell of a completed
// matrix (the site, fault and CDF summaries over the first replicate,
// as the experiments draw them) and checks each cell: metrics.Summarize must reproduce the
// runner's summary exactly, the waste components must add up, and
// every synthesized job must have completed.
func summarize(p *plan, in *inputs, mr *experiments.MatrixResult) (*summarized, []cellOutcome, error) {
	sum := &summarized{sites: map[int][][]metrics.SiteSummary{}}
	var cells []cellOutcome
	for s, sc := range in.m.Scenarios {
		for pi, name := range mr.PolicyNames {
			var reps []metrics.Summary
			for rep := range mr.Seeds {
				cell := mr.At(s, pi, rep)
				out := cellOutcome{label: cellLabel(sc.ID, name, rep)}
				got, err := metrics.Summarize(cell.Result.Jobs)
				switch {
				case err != nil:
					out.err = err
				case !reflect.DeepEqual(got, cell.Summary):
					out.err = fmt.Errorf("metrics.Summarize differs from the runner's summary")
				case got.Jobs != in.jobs[s][rep]:
					out.err = fmt.Errorf("%d of %d jobs completed", got.Jobs, in.jobs[s][rep])
				default:
					out.err = got.CheckComponents()
				}
				out.digest = cellDigest(got, cell.Result)
				cells = append(cells, out)
				reps = append(reps, got)
			}
			if p.kind == kindSites || p.kind == kindFaults {
				sum.names = append(sum.names, sc.ID+"/"+name)
			} else {
				sum.names = append(sum.names, name)
			}
			sum.reps = append(sum.reps, reps)
		}
	}
	switch p.kind {
	case kindSites:
		for s, plat := range in.plats {
			if plat.NumSites() <= 1 {
				continue
			}
			per := make([][]metrics.SiteSummary, len(mr.PolicyNames))
			for pi := range mr.PolicyNames {
				var err error
				if per[pi], err = metrics.SummarizeSites(mr.At(s, pi, 0).Result.Jobs, plat.SiteOf, plat.NumSites()); err != nil {
					return nil, cells, err
				}
			}
			sum.sites[s] = per
		}
	case kindFaults:
		for s, plat := range in.plats {
			for pi := range mr.PolicyNames {
				r := mr.At(s, pi, 0).Result
				fs, err := metrics.SummarizeFaults(r.Jobs, metrics.FaultStats{
					Crashes:         r.Crashes,
					MaintWindows:    r.MaintWindows,
					Kills:           r.Kills,
					Requeues:        r.Requeues,
					WorkLost:        r.WorkLost,
					DownCoreMinutes: r.DownCoreMinutes,
					CoreMinutes:     float64(plat.TotalCores()) * r.Makespan,
				})
				if err != nil {
					return nil, cells, err
				}
				sum.faults = append(sum.faults, fs)
			}
		}
	case kindYear:
		sum.cdf = metrics.SuspensionCDF(mr.At(0, 0, 0).Result.Jobs)
	}
	return sum, cells, nil
}

// render builds the plan's tables and figures through the report
// layer, the way its experiment does, and writes them to w.
func render(w io.Writer, p *plan, in *inputs, mr *experiments.MatrixResult, sum *summarized) error {
	var tables []*report.Table
	add := func(t *report.Table, err error) error {
		if err != nil {
			return err
		}
		tables = append(tables, t)
		return nil
	}
	switch p.kind {
	case kindTable:
		for pi, name := range mr.PolicyNames {
			r := mr.At(0, pi, 0).Result
			if err := report.SeriesCSV(w, "util:"+name, r.Util.Points()); err != nil {
				return err
			}
			if err := report.SeriesCSV(w, "suspended:"+name, r.Suspended.Points()); err != nil {
				return err
			}
		}
		if err := add(report.PaperTableCI(p.title, sum.names, sum.reps)); err != nil {
			return err
		}
		if err := add(report.WasteTableCI(p.title+" — wasted-time components", sum.names, sum.reps)); err != nil {
			return err
		}
		if p.id == "table1" {
			if err := add(report.WasteTableCI("Figure 3: Average wasted completion time (minutes) under normal load", sum.names, sum.reps)); err != nil {
				return err
			}
		}
	case kindSites, kindFaults:
		if err := add(report.PaperTableCI(p.title, sum.names, sum.reps)); err != nil {
			return err
		}
		for s, sc := range in.m.Scenarios {
			per, ok := sum.sites[s]
			if !ok {
				continue
			}
			regions := make([]string, in.plats[s].NumSites())
			for i := range regions {
				regions[i] = fmt.Sprintf("site-%c", 'A'+i)
			}
			if err := add(report.SiteTable(sc.ID+" — per-site breakdown", mr.PolicyNames, regions, per)); err != nil {
				return err
			}
		}
		if p.kind == kindFaults {
			if err := add(report.FaultTable(p.title+" — availability, goodput and churn", sum.names, sum.faults)); err != nil {
				return err
			}
		}
	case kindYear:
		if err := report.SeriesCSV(w, "suspension_cdf", sum.cdf.Points(200)); err != nil {
			return err
		}
		tables = append(tables, report.CDFTable("Figure 2: CDF of job suspension time", sum.cdf))
		r := mr.At(0, 0, 0).Result
		util, susp := r.Util.Points(), r.Suspended.Points()
		if err := report.SeriesCSV(w, "utilization_pct", util); err != nil {
			return err
		}
		if err := report.SeriesCSV(w, "suspended_jobs", susp); err != nil {
			return err
		}
		_, peak := r.Suspended.MaxBin()
		fmt.Fprintf(w, "fig4: mean utilization %.1f%%, peak suspended jobs per bin %.0f\n", r.Util.MeanOfBins(), peak)
		fmt.Fprintln(w, "utilization: "+report.Sparkline(util, 80))
		fmt.Fprintln(w, "suspended:   "+report.Sparkline(susp, 80))
	}
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
