package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// spanTree is a root of 100 ms holding a setup span with one trace
// child, and a matrix span with two cells side by side.
func spanTree() []span {
	return []span{
		{Name: "bench.run", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "bench.setup", Parent: 0, Start: ms(0), End: ms(20)},
		{Name: "trace.generate", Parent: 1, Start: ms(2), End: ms(18)},
		{Name: "experiments.matrix", Parent: 0, Start: ms(30), End: ms(90)},
		{Name: "sim.cell", ID: "a", Parent: 3, Start: ms(31), End: ms(71)},
		{Name: "sim.cell", ID: "b", Parent: 3, Start: ms(41), End: ms(81)},
		// Outside the root: ignored.
		{Name: "ckpt.load", Parent: -1, Start: ms(100), End: ms(130)},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(spanTree(), 0)
	want := map[string]float64{
		"trace":       0.016,
		"experiments": 0.001 + 0.009, // the matrix before and after its cells
		"sim":         0.050,         // 31..81, shared while both cells run
		// run without children: 20..30 and 90..100; setup without its
		// trace child: 0..2 and 18..20.
		"unattributed": 0.020 + 0.004,
	}
	sum := 0.0
	for l, v := range got {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s self time %.6f, want %.6f", l, v, want[l])
		}
	}
	if math.Abs(sum-0.100) > 1e-9 {
		t.Errorf("self times sum to %.6f, want the root's 0.100", sum)
	}
}

func TestSelfTimesSplitsConcurrentSpans(t *testing.T) {
	spans := []span{
		{Name: "bench.run", Parent: -1, Start: ms(0), End: ms(10)},
		{Name: "sim.cell", Parent: 0, Start: ms(0), End: ms(10)},
		{Name: "metrics.summarize", Parent: 0, Start: ms(0), End: ms(10)},
	}
	got := selfTimes(spans, 0)
	if math.Abs(got["sim"]-0.005) > 1e-9 || math.Abs(got["metrics"]-0.005) > 1e-9 {
		t.Errorf("concurrent spans got %v, want 5 ms each", got)
	}
}

func TestChromeTraceLoads(t *testing.T) {
	var buf bytes.Buffer
	spans := spanTree()
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("%d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	tids := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Tid < 1 || e.Dur < 0 {
			t.Errorf("event %d malformed: %+v", i, e)
		}
		if int(e.Args["parent"].(float64)) != spans[i].Parent || e.Args["id"] != spans[i].ID {
			t.Errorf("event %d lost its parent or id: %v", i, e.Args)
		}
		if e.Name == "sim.cell" {
			tids[spans[i].ID] = e.Tid
		}
	}
	if tids["a"] == tids["b"] {
		t.Errorf("overlapping cells share lane %d", tids["a"])
	}
}
