// Package trace provides the job-trace substrate for the reproduction:
// the trace record schema (a job specification per line), a streaming
// JSONL reader and writer, a CSV writer, and a synthetic workload
// generator that produces NetBatch-shaped traces.
//
// The paper's evaluation is driven by one year of proprietary traces
// from Intel's NetBatch deployment. Those traces are not available, so
// the generator synthesizes workloads that reproduce the trace
// properties the paper documents and that its results depend on:
// ~40% mean utilization in a 20–60% band, bursty pool-restricted
// high-priority arrivals lasting hours to a week, and long-tailed
// runtimes. presets.go records how each preset is calibrated.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netbatch/internal/job"
)

// Trace is an ordered collection of job specifications. Jobs are sorted
// by submission time.
type Trace struct {
	// Jobs holds the job specs in nondecreasing submission order.
	Jobs []job.Spec
}

// Validate checks every job spec, that job IDs are unique and the
// submission-order invariant.
func (t *Trace) Validate() error {
	// IDs that strictly increase cannot repeat, and every generated
	// trace numbers its jobs 1..n, so the set of seen IDs is built only
	// from the first index where they stop increasing.
	var ids map[job.ID]bool
	for i := range t.Jobs {
		if err := t.Jobs[i].Validate(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if ids == nil && i > 0 && t.Jobs[i].ID <= t.Jobs[i-1].ID {
			ids = make(map[job.ID]bool, len(t.Jobs))
			for j := range t.Jobs[:i] {
				ids[t.Jobs[j].ID] = true
			}
		}
		if ids != nil {
			if ids[t.Jobs[i].ID] {
				return fmt.Errorf("trace: duplicate job id %d", t.Jobs[i].ID)
			}
			ids[t.Jobs[i].ID] = true
		}
		if i > 0 && t.Jobs[i].Submit < t.Jobs[i-1].Submit {
			return fmt.Errorf("trace: jobs out of submission order at index %d", i)
		}
	}
	return nil
}

// Horizon returns the submission time of the last job, or 0 for an
// empty trace.
func (t *Trace) Horizon() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].Submit
}

// TotalWork returns the summed service demand of all jobs in minutes
// (at reference machine speed).
func (t *Trace) TotalWork() float64 {
	var sum float64
	for i := range t.Jobs {
		sum += t.Jobs[i].Work
	}
	return sum
}

// CountByPriority returns the number of jobs per priority level.
func (t *Trace) CountByPriority() map[job.Priority]int {
	out := make(map[job.Priority]int)
	for i := range t.Jobs {
		out[t.Jobs[i].Priority]++
	}
	return out
}

// OfferedUtilization estimates the mean fraction of totalCores the trace
// keeps busy over its horizon, assuming jobs run immediately at speed 1:
// sum(work*cores) / (horizon * totalCores). It returns 0 for an empty
// trace or non-positive inputs.
func (t *Trace) OfferedUtilization(totalCores int) float64 {
	horizon := t.Horizon()
	if horizon <= 0 || totalCores <= 0 {
		return 0
	}
	var demand float64
	for i := range t.Jobs {
		demand += t.Jobs[i].Work * float64(t.Jobs[i].Cores)
	}
	return demand / (horizon * float64(totalCores))
}

// WriteJSONL streams the trace to w as one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.Jobs {
		if err := enc.Encode(&t.Jobs[i]); err != nil {
			return fmt.Errorf("trace: encode job %d: %w", t.Jobs[i].ID, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadJSONL reads a JSONL trace from r. Blank lines are skipped.
func ReadJSONL(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var spec job.Spec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Jobs = append(t.Jobs, spec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// csvHeader is the column layout of the CSV trace format.
var csvHeader = []string{
	"id", "submit", "work", "cores", "mem_mb", "os", "priority", "task_id", "candidates", "site",
}

// WriteCSV writes the trace in CSV form with a header row. The
// candidates column is a space-separated pool-ID list.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i := range t.Jobs {
		s := &t.Jobs[i]
		cands := make([]string, len(s.Candidates))
		for ci, c := range s.Candidates {
			cands[ci] = strconv.Itoa(c)
		}
		rec := []string{
			strconv.FormatInt(int64(s.ID), 10),
			strconv.FormatFloat(s.Submit, 'g', -1, 64),
			strconv.FormatFloat(s.Work, 'g', -1, 64),
			strconv.Itoa(s.Cores),
			strconv.Itoa(s.MemMB),
			s.OS,
			strconv.Itoa(int(s.Priority)),
			strconv.FormatInt(s.TaskID, 10),
			strings.Join(cands, " "),
			strconv.Itoa(s.Site),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write job %d: %w", s.ID, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush csv: %w", err)
	}
	return nil
}
