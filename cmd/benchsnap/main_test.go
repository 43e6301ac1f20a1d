package main

import (
	"strings"
	"testing"

	"netbatch/internal/benchsnap"
)

// TestTrendFlagsShapeAgainstPredecessor checks that a trend line is
// flagged exactly when its machine shape differs from the line its
// percentages compare with: the cell's previous line, which skips the
// files that lack the cell.
func TestTrendFlagsShapeAgainstPredecessor(t *testing.T) {
	snap := func(cpus int, cells ...string) benchsnap.Snapshot {
		s := benchsnap.Snapshot{Schema: 1, GOOS: "linux", GOARCH: "amd64", CPUs: cpus}
		for _, c := range cells {
			s.Cells = append(s.Cells, benchsnap.Cell{Name: c, NsPerOp: 100, BytesPerOp: 10, AllocsPerOp: 1})
		}
		return s
	}
	files := []string{"BENCH_1.json", "BENCH_2.json", "BENCH_3.json", "BENCH_4.json"}
	snaps := []benchsnap.Snapshot{
		snap(1, "a", "b"),
		snap(1, "a"),
		snap(2, "a", "b"), // a follows a 1-CPU line; so does b, across its gap
		snap(2, "a", "b"), // both follow 2-CPU lines
	}
	var out strings.Builder
	writeTrend(&out, files, snaps)
	flagged := map[string]bool{}
	var cell string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(line, " ") {
			cell = line
			continue
		}
		if strings.Contains(line, "shape differs") {
			flagged[cell+" "+strings.Fields(line)[0]] = true
		}
	}
	want := map[string]bool{"a BENCH_3.json": true, "b BENCH_3.json": true}
	if len(flagged) != len(want) {
		t.Fatalf("flagged %v, want %v\n%s", flagged, want, out.String())
	}
	for k := range want {
		if !flagged[k] {
			t.Fatalf("flagged %v, want %v\n%s", flagged, want, out.String())
		}
	}
}
