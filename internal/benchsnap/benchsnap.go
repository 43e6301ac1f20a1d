// Package benchsnap defines the repo's canonical performance cells and
// compares a recorded pass against a committed snapshot, so the bench
// trajectory is CI-tracked instead of anecdotal: every PR that moves a
// hot-path number beyond the noise band fails loudly with the cell and
// metric that moved.
//
// Table is the one definition of the cells (cells.go): the multi-site
// busy week, the faulty week, the 6-site metro week and the simulated
// year, the checkpoint set (a plain run, full and delta capture,
// resume), trace synthesis of the busy week and the simulated year,
// and the event queue's layer cells (eventq.go), at the 4% bench
// scale. Collect records the table, and the root package's
// BenchmarkCells runs each row as a sub-benchmark of the same name.
// Collect times each cell in several rounds and keeps the median one
// (see rounds). Results serialize to a schema-versioned JSON snapshot:
// the newest BENCH_*.json at the repo root is the committed baseline,
// and the earlier ones stay committed as the trend history (see
// cmd/benchsnap).
//
// Comparison rules: allocations and bytes per op are
// hardware-independent and gate on every run; wall-clock gates only
// when the baseline was recorded on a matching machine shape (same
// GOOS/GOARCH/CPU count), because timings from different machine
// shapes do not compare.
package benchsnap

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// Schema versions the snapshot layout; bump on any breaking change to
// the JSON shape or the cell set semantics.
const Schema = 1

// Snapshot is one recorded bench pass.
type Snapshot struct {
	Schema int    `json:"schema"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// CPUs is runtime.NumCPU at record time. It is part of the machine
	// shape, so time comparison requires a match.
	CPUs  int     `json:"cpus"`
	Scale float64 `json:"scale"`
	Cells []Cell  `json:"cells"`
}

// Cell is one benchmark cell's measurement.
type Cell struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics carries the cell's extra testing.B.ReportMetric values
	// (KB/snapshot, pctOfFull, ...). Informational — not gated.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// rounds is how many testing.Benchmark rounds time each cell. A cell
// records the round with the median ns/op, with that round's allocs,
// bytes and metrics, so one round slowed by a noisy neighbor is not
// the record.
const rounds = 3

// Collect runs every row of Table through testing.Benchmark, rounds
// times each, and returns the snapshot of median rounds. scale <= 0
// defaults to the canonical 4% bench scale.
func Collect(scale float64) (Snapshot, error) {
	if scale <= 0 {
		scale = 0.04
	}
	snap := Snapshot{
		Schema: Schema,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Scale:  scale,
	}
	for _, row := range Table(scale) {
		cells := make([]Cell, 0, rounds)
		for range rounds {
			cell, err := measure(row)
			if err != nil {
				return snap, fmt.Errorf("%s: %w", row.Name, err)
			}
			cells = append(cells, cell)
		}
		snap.Cells = append(snap.Cells, medianCell(cells))
	}
	return snap, nil
}

// measure times one round of row.
func measure(row Row) (Cell, error) {
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if err = row.Run(b); err != nil {
			b.FailNow()
		}
	})
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{
		Name:        row.Name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if len(r.Extra) > 0 {
		cell.Metrics = maps.Clone(r.Extra)
	}
	return cell, nil
}

// medianCell returns the round with the median ns/op (the lower median
// for an even count). cells must not be empty.
func medianCell(cells []Cell) Cell {
	sorted := slices.Clone(cells)
	slices.SortStableFunc(sorted, func(x, y Cell) int { return cmp.Compare(x.NsPerOp, y.NsPerOp) })
	return sorted[(len(sorted)-1)/2]
}

// Regression is one gated metric that moved past its tolerance.
type Regression struct {
	Cell   string  `json:"cell"`
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	Cand   float64 `json:"candidate"`
	// Ratio is candidate/base; the gate fires when it exceeds
	// 1 + tolerance.
	Ratio float64 `json:"ratio"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%.1f%%)", r.Cell, r.Metric, r.Base, r.Cand, 100*(r.Ratio-1))
}

// Compare gates candidate against base: allocs/op and bytes/op always
// (within allocTol), ns/op only when the machine shapes match (within
// timeTol). Returned notes explain skipped gates and new/missing
// cells; regressions is empty on a pass.
func Compare(base, cand Snapshot, timeTol, allocTol float64) (regressions []Regression, notes []string, err error) {
	if base.Schema != cand.Schema {
		return nil, nil, fmt.Errorf("benchsnap: schema %d vs %d — re-record the baseline", base.Schema, cand.Schema)
	}
	if base.Scale != cand.Scale {
		return nil, nil, fmt.Errorf("benchsnap: bench scale %v vs %v — re-record the baseline", base.Scale, cand.Scale)
	}
	timeGate := base.GOOS == cand.GOOS && base.GOARCH == cand.GOARCH && base.CPUs == cand.CPUs
	if !timeGate {
		notes = append(notes, fmt.Sprintf(
			"time gate skipped: baseline recorded on %s/%s/%d-cpu, candidate on %s/%s/%d-cpu",
			base.GOOS, base.GOARCH, base.CPUs, cand.GOOS, cand.GOARCH, cand.CPUs))
	}
	candBy := make(map[string]Cell, len(cand.Cells))
	for _, c := range cand.Cells {
		candBy[c.Name] = c
	}
	gate := func(cell, metric string, b, c, tol float64) {
		if b <= 0 {
			return
		}
		if ratio := c / b; ratio > 1+tol {
			regressions = append(regressions, Regression{Cell: cell, Metric: metric, Base: b, Cand: c, Ratio: ratio})
		}
	}
	for _, bc := range base.Cells {
		cc, ok := candBy[bc.Name]
		if !ok {
			regressions = append(regressions, Regression{Cell: bc.Name, Metric: "missing", Ratio: 1})
			continue
		}
		delete(candBy, bc.Name)
		gate(bc.Name, "allocs/op", float64(bc.AllocsPerOp), float64(cc.AllocsPerOp), allocTol)
		gate(bc.Name, "bytes/op", float64(bc.BytesPerOp), float64(cc.BytesPerOp), allocTol)
		if timeGate {
			gate(bc.Name, "ns/op", bc.NsPerOp, cc.NsPerOp, timeTol)
		}
	}
	extra := make([]string, 0, len(candBy))
	for name := range candBy {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		notes = append(notes, "new cell not in baseline: "+name)
	}
	sort.Slice(regressions, func(i, j int) bool {
		if regressions[i].Cell != regressions[j].Cell {
			return regressions[i].Cell < regressions[j].Cell
		}
		return regressions[i].Metric < regressions[j].Metric
	})
	return regressions, notes, nil
}
