package report

import (
	"bytes"
	"strings"
	"testing"

	"netbatch/internal/metrics"
	"netbatch/internal/stats"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "Demo",
		Columns: []string{"a", "bee", "c"},
	}
	tbl.AddRow("1", "2", "3")
	tbl.AddRow("long-cell", "x", "y")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Demo") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Header and rows align: all data lines have same prefix widths.
	if !strings.HasPrefix(lines[4], "long-cell") {
		t.Fatalf("row misrendered: %q", lines[4])
	}
}

func TestTableRenderMismatchedRow(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.AddRow("only-one")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err == nil {
		t.Fatal("want error for mismatched row")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"x", "y"}}
	tbl.AddRow("1", "a,b") // comma must be quoted
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"a,b"`) {
		t.Fatalf("csv quoting broken: %q", out)
	}
	if !strings.HasPrefix(out, "x,y\n") {
		t.Fatalf("csv header: %q", out)
	}
}

func sampleSummaries() ([]string, []metrics.Summary) {
	return []string{"NoRes", "ResSusUtil"}, []metrics.Summary{
		{
			Jobs: 100, SuspendedJobs: 2, SuspendRate: 2,
			AvgCTSuspended: 2498.7, AvgCTAll: 569.8, AvgST: 1189.1, AvgWCT: 31.0,
			WaitComp: 15, SuspendComp: 14, ReschedComp: 2,
		},
		{
			Jobs: 100, SuspendedJobs: 3, SuspendRate: 3,
			AvgCTSuspended: 1265.4, AvgCTAll: 560.0, AvgST: 82.2, AvgWCT: 20.8,
			WaitComp: 15, SuspendComp: 3, ReschedComp: 2.8,
		},
	}
}

func TestPaperTable(t *testing.T) {
	names, sums := sampleSummaries()
	tbl, err := PaperTable("Table 1", names, sums)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "NoRes", "ResSusUtil", "2498.7", "2.00%", "AvgWCT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPaperTableMismatch(t *testing.T) {
	if _, err := PaperTable("x", []string{"a"}, nil); err == nil {
		t.Fatal("want error")
	}
}

// TestWasteTable renders one replicate per strategy, the single-seed
// layout.
func TestWasteTable(t *testing.T) {
	names, sums := sampleSummaries()
	reps := make([][]metrics.Summary, len(sums))
	for i := range sums {
		reps[i] = sums[i : i+1]
	}
	tbl, err := WasteTableCI("Figure 3", names, reps)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Wait Time", "Suspend Time", "Wasted by Resched", "14.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := WasteTableCI("x", []string{"a"}, nil); err == nil {
		t.Fatal("want mismatch error")
	}
}

func TestCDFTable(t *testing.T) {
	cdf := stats.NewCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	tbl := CDFTable("Figure 2", cdf)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"p50", "p90", "mean", "n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	pts := make([]stats.Point, 100)
	for i := range pts {
		pts[i] = stats.Point{X: float64(i), Y: float64(i)}
	}
	s := Sparkline(pts, 10)
	if got := len([]rune(s)); got != 10 {
		t.Fatalf("width = %d", got)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[9] != '█' {
		t.Fatalf("monotone ramp misrendered: %q", s)
	}
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty series should render empty")
	}
	if Sparkline(pts, 0) != "" {
		t.Fatal("zero width should render empty")
	}
	// Flat series renders lowest glyph everywhere.
	flat := []stats.Point{{Y: 5}, {Y: 5}, {Y: 5}}
	if got := Sparkline(flat, 3); got != "▁▁▁" {
		t.Fatalf("flat = %q", got)
	}
}

func TestSparklineWiderThanData(t *testing.T) {
	pts := []stats.Point{{Y: 1}, {Y: 2}}
	if got := len([]rune(Sparkline(pts, 50))); got != 2 {
		t.Fatalf("width clamped = %d, want 2", got)
	}
}

func TestSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	pts := []stats.Point{{X: 50, Y: 40.5}, {X: 150, Y: 42.25}}
	if err := SeriesCSV(&buf, "util_pct", pts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "t_minutes,util_pct\n") {
		t.Fatalf("header: %q", out)
	}
	if !strings.Contains(out, "50.0,40.5000") {
		t.Fatalf("row: %q", out)
	}
}

func TestPaperTableCISingleReplicateMatchesPlain(t *testing.T) {
	names, sums := sampleSummaries()
	reps := [][]metrics.Summary{{sums[0]}, {sums[1]}}
	plain, err := PaperTable("Table 1", names, sums)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := PaperTableCI("Table 1", names, reps)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := ci.Render(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("single-replicate CI table differs from plain:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestPaperTableCI(t *testing.T) {
	_, sums := sampleSummaries()
	a, b := sums[0], sums[0]
	// Two replicates of one strategy: AvgCTAll 500 and 600 -> 550.0 ± CI,
	// where CI = 12.706 * stddev/sqrt(2) = 12.706 * 50 = 635.3.
	a.AvgCTAll, b.AvgCTAll = 500, 600
	tbl, err := PaperTableCI("Table X", []string{"NoRes"}, [][]metrics.Summary{{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"550.0 ± 635.3", "2.00 ± 0.00%", "mean ± 95% CI over 2 seeds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWasteTableCI(t *testing.T) {
	_, sums := sampleSummaries()
	tbl, err := WasteTableCI("Waste", []string{"NoRes", "ResSusUtil"},
		[][]metrics.Summary{{sums[0], sums[0]}, {sums[1], sums[1]}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	// Identical replicates: zero-width intervals.
	if !strings.Contains(buf.String(), "31.0 ± 0.0") {
		t.Fatalf("output missing zero-CI cell:\n%s", buf.String())
	}
}

func TestSummaryTableCIErrors(t *testing.T) {
	if _, err := PaperTableCI("x", []string{"a"}, nil); err == nil {
		t.Fatal("mismatched names/replicates should error")
	}
	if _, err := PaperTableCI("x", []string{"a"}, [][]metrics.Summary{{}}); err == nil {
		t.Fatal("empty replicate set should error")
	}
}
