package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny scale in both modes: no cell
// may fail, and the metrics must be exactly the ones BENCHMARK.json
// names.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 42, seconds: 0.01, traced: traced, scale: 0.01, out: t.TempDir()}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d cells failed", w.name, traced, res.failed, res.attempted)
			}
			var names []string
			for _, m := range res.metrics {
				names = append(names, m.name)
			}
			sort.Strings(names)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !equal(names, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json names %v", w.name, traced, names, want)
			}
			if traced {
				left, err := os.ReadDir(filepath.Join(cfg.out, "tmp"))
				if err != nil || len(left) != 0 {
					t.Errorf("%s: checkpoint temp dirs left behind: %v %v", w.name, left, err)
				}
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
