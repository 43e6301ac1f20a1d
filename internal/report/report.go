// Package report renders experiment results as ASCII tables in the
// paper's layout, as CSV for downstream plotting, and as compact text
// figures (CDF quantile tables and time-series sparklines).
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"netbatch/internal/metrics"
	"netbatch/internal/stats"
)

// Table is a titled grid of cells.
type Table struct {
	// Title is printed above the table.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows are the data cells; each row must match len(Columns).
	Rows [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("report: row has %d cells, want %d", len(row), len(t.Columns))
		}
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteCSV writes the table (header plus rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("report: csv header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("report: csv flush: %w", err)
	}
	return nil
}

// summaryCol describes one metric column of a per-strategy table: its
// header, how to read it from a Summary, and the point-value format.
type summaryCol struct {
	name string
	get  func(metrics.Summary) float64
	// format renders a point value; ciFormat renders (mean, ci-half).
	format   string
	ciFormat string
}

// paperCols is the column layout of the paper's Tables 1–5.
var paperCols = []summaryCol{
	{"Suspend rate", func(s metrics.Summary) float64 { return s.SuspendRate }, "%.2f%%", "%.2f ± %.2f%%"},
	{"AvgCT Suspend", func(s metrics.Summary) float64 { return s.AvgCTSuspended }, "%.1f", "%.1f ± %.1f"},
	{"AvgCT All", func(s metrics.Summary) float64 { return s.AvgCTAll }, "%.1f", "%.1f ± %.1f"},
	{"AvgST", func(s metrics.Summary) float64 { return s.AvgST }, "%.1f", "%.1f ± %.1f"},
	{"AvgWCT", func(s metrics.Summary) float64 { return s.AvgWCT }, "%.1f", "%.1f ± %.1f"},
}

// wasteCols is the Figure 3 decomposition layout: the three components
// of average wasted completion time plus their total.
var wasteCols = []summaryCol{
	{"Wait Time", func(s metrics.Summary) float64 { return s.WaitComp }, "%.1f", "%.1f ± %.1f"},
	{"Suspend Time", func(s metrics.Summary) float64 { return s.SuspendComp }, "%.1f", "%.1f ± %.1f"},
	{"Wasted by Resched", func(s metrics.Summary) float64 { return s.ReschedComp }, "%.1f", "%.1f ± %.1f"},
	{"Total AvgWCT", func(s metrics.Summary) float64 { return s.AvgWCT }, "%.1f", "%.1f ± %.1f"},
}

// summaryTable renders one row per strategy with the given columns.
func summaryTable(title string, cols []summaryCol, names []string, sums []metrics.Summary) (*Table, error) {
	if len(names) != len(sums) {
		return nil, fmt.Errorf("report: %d names for %d summaries", len(names), len(sums))
	}
	t := &Table{Title: title, Columns: []string{"Strategy"}}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.name)
	}
	for i, s := range sums {
		row := []string{names[i]}
		for _, c := range cols {
			row = append(row, fmt.Sprintf(c.format, c.get(s)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// summaryTableCI renders one row per strategy with each column shown as
// mean ± 95% CI (Student t) across that strategy's seed replicates.
func summaryTableCI(title string, cols []summaryCol, names []string, reps [][]metrics.Summary) (*Table, error) {
	if len(names) != len(reps) {
		return nil, fmt.Errorf("report: %d names for %d replicate sets", len(names), len(reps))
	}
	n := 0
	t := &Table{Title: title, Columns: []string{"Strategy"}}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.name)
	}
	for i, sums := range reps {
		if len(sums) == 0 {
			return nil, fmt.Errorf("report: strategy %s has no replicates", names[i])
		}
		n = len(sums)
		row := []string{names[i]}
		for _, c := range cols {
			var m stats.Mean
			for _, s := range sums {
				m.Add(c.get(s))
			}
			row = append(row, fmt.Sprintf(c.ciFormat, m.Mean(), m.CI95()))
		}
		t.AddRow(row...)
	}
	t.Title = fmt.Sprintf("%s (mean ± 95%% CI over %d seeds)", title, n)
	return t, nil
}

// PaperTable renders per-strategy summaries in the layout of the
// paper's Tables 1–5.
func PaperTable(title string, names []string, sums []metrics.Summary) (*Table, error) {
	return summaryTable(title, paperCols, names, sums)
}

// PaperTableCI renders the paper-table layout across seed replicates:
// with a single replicate per strategy it is identical to PaperTable;
// with several, every metric cell reads mean ± 95% CI.
func PaperTableCI(title string, names []string, reps [][]metrics.Summary) (*Table, error) {
	if single, ok := singleReplicate(reps); ok {
		return summaryTable(title, paperCols, names, single)
	}
	return summaryTableCI(title, paperCols, names, reps)
}

// WasteTableCI renders the Figure 3 decomposition: the three
// components of average wasted completion time per strategy, across
// seed replicates (see PaperTableCI).
func WasteTableCI(title string, names []string, reps [][]metrics.Summary) (*Table, error) {
	if single, ok := singleReplicate(reps); ok {
		return summaryTable(title, wasteCols, names, single)
	}
	return summaryTableCI(title, wasteCols, names, reps)
}

// singleReplicate flattens a replicate matrix when every strategy ran
// exactly once.
func singleReplicate(reps [][]metrics.Summary) ([]metrics.Summary, bool) {
	out := make([]metrics.Summary, len(reps))
	for i, r := range reps {
		if len(r) != 1 {
			return nil, false
		}
		out[i] = r[0]
	}
	return out, true
}

// SiteTable renders the per-site slice of multi-site runs: one row per
// (strategy, site) with the site-tagged metrics. regions labels the
// sites; perStrategy holds each strategy's site summaries aligned with
// names.
func SiteTable(title string, names []string, regions []string, perStrategy [][]metrics.SiteSummary) (*Table, error) {
	if len(names) != len(perStrategy) {
		return nil, fmt.Errorf("report: %d names for %d site-summary sets", len(names), len(perStrategy))
	}
	t := &Table{
		Title:   title,
		Columns: []string{"Strategy", "Site", "Jobs", "Remote", "Suspend rate", "AvgCT", "AvgWait"},
	}
	for i, sums := range perStrategy {
		for _, s := range sums {
			region := fmt.Sprintf("site-%d", s.Site)
			if s.Site < len(regions) {
				region = regions[s.Site]
			}
			t.AddRow(
				names[i],
				region,
				fmt.Sprintf("%d", s.Jobs),
				fmt.Sprintf("%.1f%%", s.RemotePct),
				fmt.Sprintf("%.2f%%", s.SuspendRate),
				fmt.Sprintf("%.1f", s.AvgCT),
				fmt.Sprintf("%.1f", s.AvgWait),
			)
		}
	}
	return t, nil
}

// FaultTable renders the fault & maintenance slice of a run set: one
// row per strategy/cell with availability, goodput and the raw fault
// counters.
func FaultTable(title string, names []string, sums []metrics.FaultSummary) (*Table, error) {
	if len(names) != len(sums) {
		return nil, fmt.Errorf("report: %d names for %d fault summaries", len(names), len(sums))
	}
	t := &Table{
		Title: title,
		Columns: []string{"Strategy", "Availability", "Goodput",
			"Crashes", "Windows", "Kills", "Requeues", "Work lost"},
	}
	for i, s := range sums {
		t.AddRow(
			names[i],
			fmt.Sprintf("%.2f%%", s.AvailabilityPct),
			fmt.Sprintf("%.2f%%", s.GoodputPct),
			fmt.Sprintf("%d", s.Crashes),
			fmt.Sprintf("%d", s.MaintWindows),
			fmt.Sprintf("%d", s.Kills),
			fmt.Sprintf("%d", s.Requeues),
			fmt.Sprintf("%.0f", s.WorkLost),
		)
	}
	return t, nil
}

// CDFTable renders a distribution as quantile rows (the text rendering
// of Figure 2).
func CDFTable(title string, cdf *stats.CDF) *Table {
	t := &Table{Title: title, Columns: []string{"Percentile", "Minutes"}}
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.80, 0.90, 0.95, 0.99} {
		t.AddRow(fmt.Sprintf("p%02.0f", q*100), fmt.Sprintf("%.1f", cdf.Quantile(q)))
	}
	t.AddRow("mean", fmt.Sprintf("%.1f", cdf.Mean()))
	t.AddRow("n", fmt.Sprintf("%d", cdf.N()))
	return t
}

// sparkLevels are the glyphs used by Sparkline, lowest to highest.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a unicode sparkline of at most width
// characters (the text rendering of Figure 4's curves).
func Sparkline(pts []stats.Point, width int) string {
	if len(pts) == 0 || width <= 0 {
		return ""
	}
	if width > len(pts) {
		width = len(pts)
	}
	// Downsample by averaging consecutive chunks.
	vals := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(pts) / width
		hi := (i + 1) * len(pts) / width
		if hi == lo {
			hi = lo + 1
		}
		var sum float64
		for _, p := range pts[lo:hi] {
			sum += p.Y
		}
		vals[i] = sum / float64(hi-lo)
	}
	minV, maxV := vals[0], vals[0]
	for _, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := 0
		if maxV > minV {
			idx = int((v - minV) / (maxV - minV) * float64(len(sparkLevels)-1))
		}
		sb.WriteRune(sparkLevels[idx])
	}
	return sb.String()
}

// SeriesCSV writes a time series as (t, value) CSV rows.
func SeriesCSV(w io.Writer, header string, pts []stats.Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_minutes", header}); err != nil {
		return fmt.Errorf("report: series header: %w", err)
	}
	for _, p := range pts {
		if err := cw.Write([]string{
			fmt.Sprintf("%.1f", p.X), fmt.Sprintf("%.4f", p.Y),
		}); err != nil {
			return fmt.Errorf("report: series row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("report: series flush: %w", err)
	}
	return nil
}
