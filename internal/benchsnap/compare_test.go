package benchsnap

import (
	"strings"
	"testing"
)

func snapWith(cpus int, cells ...Cell) Snapshot {
	return Snapshot{Schema: Schema, GOOS: "linux", GOARCH: "amd64", CPUs: cpus, Scale: 0.04, Cells: cells}
}

func TestCompareGates(t *testing.T) {
	base := snapWith(4,
		Cell{Name: "a", NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 1000},
		Cell{Name: "b", NsPerOp: 2000, BytesPerOp: 2 << 20, AllocsPerOp: 2000},
	)

	t.Run("within tolerance passes", func(t *testing.T) {
		cand := snapWith(4,
			Cell{Name: "a", NsPerOp: 1090, BytesPerOp: 1<<20 + 1<<15, AllocsPerOp: 1040},
			Cell{Name: "b", NsPerOp: 1900, BytesPerOp: 2 << 20, AllocsPerOp: 2000},
		)
		regs, notes, err := Compare(base, cand, 0.10, 0.05)
		if err != nil || len(regs) != 0 || len(notes) != 0 {
			t.Fatalf("want clean pass, got regs=%v notes=%v err=%v", regs, notes, err)
		}
	})

	t.Run("alloc regression fails", func(t *testing.T) {
		cand := snapWith(4,
			Cell{Name: "a", NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 1100},
			Cell{Name: "b", NsPerOp: 2000, BytesPerOp: 2 << 20, AllocsPerOp: 2000},
		)
		regs, _, err := Compare(base, cand, 0.10, 0.05)
		if err != nil || len(regs) != 1 || regs[0].Cell != "a" || regs[0].Metric != "allocs/op" {
			t.Fatalf("want one allocs/op regression on a, got %v err=%v", regs, err)
		}
	})

	t.Run("time regression fails on matching shape", func(t *testing.T) {
		cand := snapWith(4,
			Cell{Name: "a", NsPerOp: 1200, BytesPerOp: 1 << 20, AllocsPerOp: 1000},
			Cell{Name: "b", NsPerOp: 2000, BytesPerOp: 2 << 20, AllocsPerOp: 2000},
		)
		regs, _, err := Compare(base, cand, 0.10, 0.05)
		if err != nil || len(regs) != 1 || regs[0].Metric != "ns/op" {
			t.Fatalf("want one ns/op regression, got %v err=%v", regs, err)
		}
	})

	t.Run("time gate skipped on cpu mismatch", func(t *testing.T) {
		cand := snapWith(1,
			Cell{Name: "a", NsPerOp: 5000, BytesPerOp: 1 << 20, AllocsPerOp: 1000},
			Cell{Name: "b", NsPerOp: 9000, BytesPerOp: 2 << 20, AllocsPerOp: 2000},
		)
		regs, notes, err := Compare(base, cand, 0.10, 0.05)
		if err != nil || len(regs) != 0 {
			t.Fatalf("time must not gate across shapes, got %v err=%v", regs, err)
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "time gate skipped") {
			t.Fatalf("want a skip note, got %v", notes)
		}
	})

	t.Run("retained memory gated when both carry it", func(t *testing.T) {
		retained := func(c Cell, v float64) Cell {
			c.Metrics = map[string]float64{"retainedB/job": v}
			return c
		}
		base := snapWith(4, retained(base.Cells[0], 110), base.Cells[1])
		// b carries the metric only in the candidate, so it is not gated.
		within := snapWith(4, retained(base.Cells[0], 115), retained(base.Cells[1], 500))
		if regs, _, err := Compare(base, within, 0.10, 0.05); err != nil || len(regs) != 0 {
			t.Fatalf("110 -> 115 B/job is within 5%%, and b has no baseline: got %v err=%v", regs, err)
		}
		grown := snapWith(4, retained(base.Cells[0], 166), base.Cells[1])
		regs, _, err := Compare(base, grown, 0.10, 0.05)
		if err != nil || len(regs) != 1 || regs[0].Cell != "a" || regs[0].Metric != "retainedB/job" {
			t.Fatalf("want one retainedB/job regression on a, got %v err=%v", regs, err)
		}
		stripped := snapWith(4, Cell{Name: "a", NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 1000}, base.Cells[1])
		if regs, _, err := Compare(base, stripped, 0.10, 0.05); err != nil || len(regs) != 0 {
			t.Fatalf("a candidate without the metric must not be gated on it, got %v err=%v", regs, err)
		}
	})

	t.Run("missing and extra cells reported", func(t *testing.T) {
		cand := snapWith(4,
			Cell{Name: "a", NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 1000},
			Cell{Name: "c", NsPerOp: 10, BytesPerOp: 10, AllocsPerOp: 10},
		)
		regs, notes, err := Compare(base, cand, 0.10, 0.05)
		if err != nil || len(regs) != 1 || regs[0].Cell != "b" || regs[0].Metric != "missing" {
			t.Fatalf("want missing-cell regression for b, got %v err=%v", regs, err)
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "new cell not in baseline: c") {
			t.Fatalf("want new-cell note for c, got %v", notes)
		}
	})

	t.Run("schema and scale mismatches are errors", func(t *testing.T) {
		bad := snapWith(4)
		bad.Schema = Schema + 1
		if _, _, err := Compare(bad, snapWith(4), 0.10, 0.05); err == nil {
			t.Fatal("schema mismatch must error")
		}
		bad = snapWith(4)
		bad.Scale = 0.1
		if _, _, err := Compare(bad, snapWith(4), 0.10, 0.05); err == nil {
			t.Fatal("scale mismatch must error")
		}
	})
}

func TestMedianCell(t *testing.T) {
	round := func(ns float64, allocs int64) Cell {
		return Cell{Name: "a", NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: 8 * allocs,
			Metrics: map[string]float64{"retainedB/job": float64(allocs)}}
	}
	for _, tc := range []struct {
		name  string
		cells []Cell
		want  int // index of the median round in cells
	}{
		{"one round", []Cell{round(7, 1)}, 0},
		{"middle of three", []Cell{round(300, 3), round(100, 1), round(200, 2)}, 2},
		{"slow outlier ignored", []Cell{round(100, 1), round(900, 9), round(110, 2)}, 2},
		{"lower median of four", []Cell{round(4, 4), round(1, 1), round(3, 3), round(2, 2)}, 3},
		{"ties keep round order", []Cell{round(9, 3), round(5, 1), round(5, 2)}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The whole round is kept: its allocs, bytes and metrics
			// come with its ns/op.
			got, want := medianCell(tc.cells), tc.cells[tc.want]
			if got.NsPerOp != want.NsPerOp || got.AllocsPerOp != want.AllocsPerOp ||
				got.BytesPerOp != want.BytesPerOp || got.Metrics["retainedB/job"] != want.Metrics["retainedB/job"] {
				t.Fatalf("medianCell = %+v, want round %d %+v", got, tc.want, want)
			}
		})
	}
	// The input order is left alone.
	cells := []Cell{{NsPerOp: 3}, {NsPerOp: 1}, {NsPerOp: 2}}
	medianCell(cells)
	if cells[0].NsPerOp != 3 || cells[1].NsPerOp != 1 {
		t.Fatal("medianCell reordered its input")
	}
}
