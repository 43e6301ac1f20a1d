// Command benchsnap records the canonical bench cells to a
// schema-versioned JSON snapshot and/or gates the run against a
// committed baseline.
//
// The cells are the rows of benchsnap.Table; `go test -bench
// BenchmarkCells .` runs the same rows under the same names.
//
// Record a new baseline (done once per perf-relevant PR) at
// GOMAXPROCS=1, gated against the newest committed one:
//
//	GOMAXPROCS=1 go run ./cmd/benchsnap -compare BENCH_26.json -out BENCH_27.json
//
// Gate a candidate in CI (exits 1 on regression):
//
//	go run ./cmd/benchsnap -compare BENCH_26.json -out bench-candidate.json
//
// Every cell is timed in three rounds and records the median one.
// Allocations and bytes per op gate on every run (they are
// hardware-independent); ns/op gates only when the baseline was
// recorded on the same GOOS/GOARCH/CPU-count shape as the candidate.
//
// Print the per-cell trajectory across every committed baseline
// (BENCH_*.json in PR order) without running anything:
//
//	go run ./cmd/benchsnap -trend
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"netbatch/internal/benchsnap"
)

func main() {
	out := flag.String("out", "", "write the collected snapshot to this JSON file")
	compare := flag.String("compare", "", "baseline snapshot to gate against; exit 1 on regression")
	trend := flag.Bool("trend", false, "print per-cell trajectories across committed BENCH_*.json snapshots (positional args override the glob)")
	scale := flag.Float64("scale", 0, "bench scale (0 = canonical 0.04)")
	timeTol := flag.Float64("time-tol", 0.10, "allowed ns/op growth before failing (fraction)")
	allocTol := flag.Float64("alloc-tol", 0.05, "allowed allocs/op and bytes/op growth before failing (fraction)")
	flag.Parse()
	if *trend {
		if err := printTrend(flag.Args()); err != nil {
			fatal(err)
		}
		if *out == "" && *compare == "" {
			return
		}
	}
	if *out == "" && *compare == "" {
		fmt.Fprintln(os.Stderr, "benchsnap: nothing to do; pass -out, -compare and/or -trend")
		flag.Usage()
		os.Exit(2)
	}

	cand, err := benchsnap.Collect(*scale)
	if err != nil {
		fatal(err)
	}
	for _, c := range cand.Cells {
		fmt.Printf("%-28s %12.0f ns/op %12d B/op %9d allocs/op", c.Name, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
		for k, v := range c.Metrics {
			fmt.Printf("   %.4g %s", v, k)
		}
		fmt.Println()
	}

	if *out != "" {
		data, err := json.MarshalIndent(cand, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fatal(err)
		}
		var base benchsnap.Snapshot
		if err := json.Unmarshal(data, &base); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *compare, err))
		}
		regs, notes, err := benchsnap.Compare(base, cand, *timeTol, *allocTol)
		if err != nil {
			fatal(err)
		}
		for _, n := range notes {
			fmt.Println("note:", n)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchsnap: %d regression(s) vs %s:\n", len(regs), *compare)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  ", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions vs %s (time tol %.0f%%, alloc tol %.0f%%)\n",
			*compare, 100**timeTol, 100**allocTol)
	}
}

// printTrend loads the given snapshot files (default: BENCH_*.json in
// the working directory), orders them by the numeric PR suffix, and
// prints each cell's metric trajectory — the whole committed perf
// history at a glance, no benchmarks run.
func printTrend(files []string) error {
	if len(files) == 0 {
		var err error
		files, err = filepath.Glob("BENCH_*.json")
		if err != nil {
			return err
		}
	}
	if len(files) == 0 {
		return fmt.Errorf("trend: no BENCH_*.json snapshots found")
	}
	sort.Slice(files, func(i, j int) bool {
		a, b := snapOrdinal(files[i]), snapOrdinal(files[j])
		if a != b {
			return a < b
		}
		return files[i] < files[j]
	})
	snaps := make([]benchsnap.Snapshot, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &snaps[i]); err != nil {
			return fmt.Errorf("parse %s: %w", f, err)
		}
	}
	// Cells in first-appearance order; the union tolerates cells that
	// were added or retired between baselines.
	var order []string
	idx := make([]map[string]benchsnap.Cell, len(snaps))
	for i, s := range snaps {
		idx[i] = make(map[string]benchsnap.Cell, len(s.Cells))
		for _, c := range s.Cells {
			if _, seen := idx[i][c.Name]; !seen {
				idx[i][c.Name] = c
			}
			if !contains(order, c.Name) {
				order = append(order, c.Name)
			}
		}
	}
	for _, name := range order {
		fmt.Printf("%s\n", name)
		var prev *benchsnap.Cell
		for i, f := range files {
			c, ok := idx[i][name]
			if !ok {
				// Render the gap instead of silently skipping the file:
				// a missing cell (added later, or dropped from an old
				// baseline) reads very differently from a flat metric.
				fmt.Printf("  %-18s %14s\n", f, "(cell absent)")
				continue
			}
			line := fmt.Sprintf("  %-18s %12.0f ns/op%s %12d B/op%s %9d allocs/op%s",
				f, c.NsPerOp, delta(float64(c.NsPerOp), prev, func(p *benchsnap.Cell) float64 { return p.NsPerOp }),
				c.BytesPerOp, delta(float64(c.BytesPerOp), prev, func(p *benchsnap.Cell) float64 { return float64(p.BytesPerOp) }),
				c.AllocsPerOp, delta(float64(c.AllocsPerOp), prev, func(p *benchsnap.Cell) float64 { return float64(p.AllocsPerOp) }))
			if snaps[i].GOOS != snaps[0].GOOS || snaps[i].GOARCH != snaps[0].GOARCH || snaps[i].CPUs != snaps[0].CPUs {
				line += "   [shape differs: ns/op not comparable]"
			}
			fmt.Println(line)
			cc := c
			prev = &cc
		}
	}
	return nil
}

// snapOrdinal extracts the trailing integer of a snapshot filename
// (BENCH_10.json → 10); unnumbered files sort last, lexicographically.
func snapOrdinal(path string) int {
	base := strings.TrimSuffix(filepath.Base(path), ".json")
	if i := strings.LastIndexByte(base, '_'); i >= 0 {
		if n, err := strconv.Atoi(base[i+1:]); err == nil {
			return n
		}
	}
	return int(^uint(0) >> 1)
}

func delta(cur float64, prev *benchsnap.Cell, get func(*benchsnap.Cell) float64) string {
	if prev == nil {
		return strings.Repeat(" ", 9)
	}
	p := get(prev)
	if p == 0 {
		return strings.Repeat(" ", 9)
	}
	return fmt.Sprintf(" (%+5.1f%%)", (cur-p)/p*100)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}
