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
