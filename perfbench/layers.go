package main

import (
	"fmt"
	"io"
	"strings"
)

// layerOrder lists the rows of the self-time table: the modules the
// benchmark calls into, then the time no layer span covered.
var layerOrder = []string{"trace", "cluster", "experiments", "sim", "ckpt", "metrics", "report", "unattributed"}

// layerMetrics derives the per-layer metrics of a traced iteration from
// its spans, its registry gauges and the checkpoint probes. untracedWall
// is the untraced iterations' median wall_s.
func layerMetrics(w *workload, it *iteration, spans []span, untracedWall float64, pres probeResult) []metric {
	under := func(i int) bool {
		for j := i; j >= 0; j = spans[j].Parent {
			if j == it.span.run {
				return true
			}
		}
		return false
	}
	var (
		genS, genJobs, genAlloc, buildS             float64
		matrixS, capacity, cellSpanS                float64
		cellS, cellMax, events, summarizeS, renderS float64
		cells                                       int
		captureCellS, resumeCellS                   float64
		children                                    = map[int]int{}
	)
	for _, s := range spans {
		if s.Name == "sim.cell" && s.Parent >= 0 {
			children[s.Parent]++
		}
	}
	for i, s := range spans {
		if !under(i) {
			continue
		}
		d := (s.End - s.Start).Seconds()
		switch s.Name {
		case "trace.generate":
			genS += d
			genJobs += s.Args["jobs"]
			genAlloc += s.Args["alloc_bytes"]
		case "cluster.build":
			buildS += d
		case "experiments.matrix":
			matrixS += d
			capacity += d * float64(min(w.jobs, children[i]))
		case "sim.cell":
			c := s.Args["wall_ms"] / 1e3
			cells++
			cellS += c
			cellMax = max(cellMax, c)
			cellSpanS += d
			events += s.Args["events"]
			switch pass := spans[s.Parent].ID; {
			case strings.HasSuffix(pass, "/capture"):
				captureCellS += c
			case strings.HasSuffix(pass, "/resume"):
				resumeCellS += c
			}
		case "metrics.summarize":
			summarizeS += d
		case "report.render":
			renderS += d
		}
	}
	timed := spans[it.span.timed]
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	captures := timed.Args["sim.checkpoint.captures"]
	keyframes := float64((it.ckptFiles + ckptKeyframe - 1) / ckptKeyframe)
	overhead := 0.0
	if w.ckpt {
		overhead = captureCellS - pres.straightCellS
	}
	ms := []metric{
		{"trace.generate_s", "s", genS},
		{"trace.jobs", "count", genJobs},
		{"trace.ns_per_job", "ns", ratio(genS*1e9, genJobs)},
		{"trace.alloc_mb", "MB", genAlloc / (1 << 20)},
		{"cluster.build_s", "s", buildS},
		{"experiments.matrix_s", "s", matrixS},
		{"experiments.cells", "count", float64(cells)},
		{"experiments.cell_max_s", "s", cellMax},
		{"experiments.worker_idle_frac", "ratio", 1 - ratio(cellSpanS, capacity)},
		{"sim.cell_s", "s", cellS},
		{"sim.events", "count", events},
		{"sim.ns_per_event", "ns", ratio(cellS*1e9, events)},
		{"sim.queue.depth_max", "count", float64(it.gauges["sim.queue.depth_max"])},
		{"sim.queue.tombstones_max", "count", float64(it.gauges["sim.queue.tombstones_max"])},
		{"sim.preemptions", "count", float64(it.counts.preemptions)},
		{"sim.wait_moves", "count", float64(it.counts.waitMoves)},
		{"sim.cross_site_moves", "count", float64(it.counts.crossSiteMoves)},
		{"sim.alias_retirements", "count", float64(it.counts.aliasRetirements)},
		{"ckpt.captures", "count", captures},
		{"ckpt.capture_overhead_s", "s", overhead},
		{"ckpt.per_capture_ms", "ms", ratio(overhead*1e3, float64(it.ckptFiles))},
		{"ckpt.delta_kept_frac", "ratio", ratio(float64(it.ckptDeltas), float64(it.ckptFiles)-keyframes)},
		{"ckpt.load_s", "s", pres.loadS},
		{"ckpt.resume_cell_s", "s", resumeCellS},
		{"metrics.summarize_s", "s", summarizeS},
		{"report.render_s", "s", renderS},
		{"report.bytes", "B", float64(it.renderBytes)},
		{"gc.alloc_mb", "MB", timed.Args["alloc_bytes"] / (1 << 20)},
		{"gc.cycles", "count", timed.Args["gc_cycles"]},
		{"gc.cpu_s", "s", timed.Args["gc_cpu_s"]},
		{"traced.overhead_s", "s", it.wallS - untracedWall},
	}
	self := selfTimes(spans, it.span.run)
	for _, l := range layerOrder {
		ms = append(ms, metric{"self." + l + "_s", "s", self[l]})
	}
	return ms
}

// printSelfTimes prints the self-time table: each layer's share of the
// traced iteration, whose rows sum to its wall time.
func printSelfTimes(w io.Writer, self map[string]float64, root span) {
	total := (root.End - root.Start).Seconds()
	fmt.Fprintf(w, "self time of the traced iteration (%.4f s wall)\n", total)
	sum := 0.0
	for _, l := range layerOrder {
		fmt.Fprintf(w, "  %-14s %10.4f s %6.2f%%\n", l, self[l], 100*self[l]/total)
		sum += self[l]
	}
	fmt.Fprintf(w, "  %-14s %10.4f s\n", "sum", sum)
}
