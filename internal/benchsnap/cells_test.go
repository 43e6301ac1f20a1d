package benchsnap

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Every cell of the newest committed baseline is a row of the table,
// under a name no other row takes, so renaming or dropping a gated cell
// fails here and not only in CI's bench gate. No cell runs.
func TestTableCoversNewestBaseline(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	newest, newestN := "", -1
	for _, f := range files {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(f), "BENCH_%d.json", &n); err == nil && n > newestN {
			newest, newestN = f, n
		}
	}
	if newest == "" {
		t.Fatal("no committed BENCH_<n>.json baseline")
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("%s: %v", newest, err)
	}
	rows := make(map[string]bool)
	for _, r := range Table(base.Scale) {
		if rows[r.Name] {
			t.Errorf("two rows are named %s", r.Name)
		}
		rows[r.Name] = true
	}
	for _, c := range base.Cells {
		if !rows[c.Name] {
			t.Errorf("%s records cell %s, which is not a row of the table", filepath.Base(newest), c.Name)
		}
	}
}

// A finished cell keeps only its jobs' outcome records: retainedB/job
// on the year cell is the 96-byte job.Job, its Result.Jobs pointer and
// a little of the series, at most 115 bytes (166 when the record also
// held the attempt state).
func TestYearCellRetainsOutcomeOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the year cell")
	}
	for _, r := range Table(0.04) {
		if r.Name != "year6/serial" {
			continue
		}
		var err error
		res := testing.Benchmark(func(b *testing.B) { err = r.Run(b) })
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Extra[retainedMetric]; got <= 0 || got > 115 {
			t.Fatalf("year6/serial retains %.1f B per job, want at most 115", got)
		}
		return
	}
	t.Fatal("no year6/serial row")
}
