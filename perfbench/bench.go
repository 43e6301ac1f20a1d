package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"netbatch/internal/cluster"
	"netbatch/internal/experiments"
	"netbatch/internal/obs"
	"netbatch/internal/trace"
)

// A bench runs one workload at one seed, iteration after iteration,
// and checks that every iteration simulates the same outcome.
type bench struct {
	w     *workload
	seed  uint64
	scale float64
	tmp   string // parent of the per-iteration checkpoint directories
	plans []*plan
	// refs are the recorded digests for this workload, seed and scale,
	// nil when none were recorded.
	refs map[string]string
	// first holds every cell's digest from the first iteration; later
	// iterations must match it.
	first map[string]string
}

// An iteration is one set-up plus one timed pass over the workload.
type iteration struct {
	setupS float64 // synthesizing every trace and platform
	wallS  float64 // the timed section: simulate, summarize, render
	cpuS   float64 // process user+sys CPU over the timed section
	jobs   int     // jobs completed across the timed section's cells

	attempted, failed int
	digests           map[string]string // by cell label (last pass wins)

	// Checkpoint workload only.
	resumeS    float64 // the resume pass: simulate, summarize, render
	ckptBytes  int64   // written by the capture pass
	ckptFiles  int     // snapshots written by the capture pass
	ckptDeltas int     // of which delta-encoded
	keptNewest string  // newest checkpoint left after pruning
	ckptDir    string  // removed by the caller once probes are done

	// Reported by traced iterations only.
	ins         []*inputs // kept for the checkpoint probes
	span        traceSpans
	renderBytes int64
	counts      simCounts
	gauges      map[string]int64
}

// traceSpans are the structural spans of a traced iteration.
type traceSpans struct{ run, setup, timed int }

// simCounts sums sim.Result counters over the timed cells.
type simCounts struct {
	preemptions, waitMoves, crossSiteMoves, aliasRetirements int64
}

// probe is the traced mode's instrumentation: spans, the registry the
// engine records into, and the run log that yields per-cell spans.
type probe struct {
	t      *tracer
	reg    *obs.Registry
	cells  *cellLog
	runlog *obs.RunLog
}

func newProbe() *probe {
	reg := obs.NewRegistry()
	t := newTracer(reg)
	cells := newCellLog(t)
	return &probe{t: t, reg: reg, cells: cells, runlog: obs.NewRunLog(cells)}
}

// options returns the matrix options of one pass.
func (b *bench) options(pr *probe) experiments.Options {
	opts := experiments.Options{Seed: b.seed, Scale: b.scale, Jobs: b.w.jobs}
	if pr != nil {
		opts.Metrics = pr.reg
		opts.RunLog = pr.runlog
	}
	return opts
}

// setup synthesizes every plan's traces and platforms through the
// scenarios' own Trace and Platform functions.
func (b *bench) setup(t *tracer, parent int) ([]*inputs, error) {
	var all []*inputs
	seeds := experiments.ReplicateSeeds(b.seed, b.w.reps)
	for _, p := range b.plans {
		in := &inputs{m: experiments.Matrix{Policies: p.m.Policies, Seeds: seeds}}
		for _, sc := range p.m.Scenarios {
			i := t.begin("cluster.build", sc.ID, parent)
			plat, err := sc.Platform(b.scale)
			t.end(i)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: platform: %w", sc.ID, err)
			}
			traces := map[uint64]*trace.Trace{}
			var jobs []int
			for _, seed := range seeds {
				i = t.begin("trace.generate", sc.ID, parent)
				tr, err := sc.Trace(seed, b.scale)
				t.end(i)
				if err != nil {
					return nil, fmt.Errorf("scenario %s seed %d: trace: %w", sc.ID, seed, err)
				}
				t.setArg(i, "jobs", float64(len(tr.Jobs)))
				traces[seed] = tr
				jobs = append(jobs, len(tr.Jobs))
			}
			frozen := sc
			frozen.Trace = func(seed uint64, _ float64) (*trace.Trace, error) { return traces[seed], nil }
			frozen.Platform = func(float64) (*cluster.Platform, error) { return plat, nil }
			in.m.Scenarios = append(in.m.Scenarios, frozen)
			in.plats = append(in.plats, plat)
			in.jobs = append(in.jobs, jobs)
		}
		all = append(all, in)
	}
	return all, nil
}

// iterate makes one set-up and one timed pass. With a non-nil probe the
// pass is traced.
func (b *bench) iterate(pr *probe) (*iteration, error) {
	var t *tracer
	if pr != nil {
		t = pr.t
	}
	it := &iteration{digests: map[string]string{}}
	it.span.run = t.begin("bench.run", b.w.name, -1)
	it.span.setup = t.begin("bench.setup", b.w.name, it.span.run)
	runtime.GC()
	t0 := time.Now()
	ins, err := b.setup(t, it.span.setup)
	it.setupS = time.Since(t0).Seconds()
	t.end(it.span.setup)
	if err != nil {
		return nil, err
	}
	if pr != nil {
		it.ins = ins
	}
	runtime.GC()

	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	it.span.timed = t.begin("bench.timed", b.w.name, it.span.run)
	t0 = time.Now()
	if b.w.ckpt {
		err = b.checkpointPasses(it, ins[0], pr)
	} else {
		for k, p := range b.plans {
			b.pass(it, p, ins[k], b.options(pr), pr, p.id, nil)
		}
	}
	it.wallS = time.Since(t0).Seconds()
	t.end(it.span.timed)
	t.end(it.span.run)
	cpu1, cerr := cpuSeconds()
	if err == nil {
		err = cerr
	}
	it.cpuS = cpu1 - cpu0
	if pr != nil {
		it.gauges = map[string]int64{}
		for _, m := range pr.reg.Snapshot() {
			if m.Kind == "gauge" {
				it.gauges[m.Name] = m.Value
			}
		}
	}
	return it, err
}

// pass runs one plan's matrix, then summarizes, renders and checks its
// cells. A failed matrix run fails every cell of the plan.
//
// cellErr, when set, is consulted once the matrix has run; an error it
// returns fails every cell of the pass.
func (b *bench) pass(it *iteration, p *plan, in *inputs, opts experiments.Options, pr *probe, id string, cellErr func() error) {
	var t *tracer
	if pr != nil {
		t = pr.t
	}
	parent := it.span.timed
	mi := t.begin("experiments.matrix", id, parent)
	if pr != nil {
		pr.cells.parent = mi
	}
	mr, err := in.m.Run(opts)
	t.end(mi)
	n := len(in.m.Scenarios) * len(in.m.Policies) * len(in.m.Seeds)
	it.attempted += n
	if err != nil {
		it.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", id, err)
		return
	}
	si := t.begin("metrics.summarize", id, parent)
	sum, cells, err := summarize(p, in, mr)
	t.end(si)
	if err == nil {
		ri := t.begin("report.render", id, parent)
		var cw countWriter
		err = render(&cw, p, in, mr, sum)
		t.end(ri)
		it.renderBytes += cw.n
		if err == nil && cw.n == 0 {
			err = fmt.Errorf("report rendered nothing")
		}
	}
	if err == nil && cellErr != nil {
		err = cellErr()
	}
	if err != nil {
		for i := range cells {
			cells[i].err = err
		}
	}
	for s := range in.m.Scenarios {
		for pi := range in.m.Policies {
			for rep := range in.m.Seeds {
				r := mr.At(s, pi, rep).Result
				it.jobs += len(r.Jobs)
				it.counts.preemptions += r.Preemptions
				it.counts.waitMoves += r.WaitMoves
				it.counts.crossSiteMoves += r.CrossSiteMoves
				it.counts.aliasRetirements += r.AliasRetirements
			}
		}
	}
	for i := range cells {
		b.check(it, &cells[i])
	}
}

// check compares a cell's digest with the recorded reference and with
// the first iteration, and counts the cell as failed on any mismatch.
func (b *bench) check(it *iteration, c *cellOutcome) {
	if c.err == nil && b.refs != nil {
		if want, ok := b.refs[c.label]; !ok {
			c.err = fmt.Errorf("no reference digest recorded")
		} else if c.digest != want {
			c.err = fmt.Errorf("digest %s, reference %s", c.digest, want)
		}
	}
	if c.err == nil {
		if want, ok := b.first[c.label]; ok && c.digest != want {
			c.err = fmt.Errorf("digest %s differs from the first iteration's %s", c.digest, want)
		} else if !ok {
			b.first[c.label] = c.digest
		}
	}
	it.digests[c.label] = c.digest
	if c.err != nil {
		it.failed++
		fmt.Fprintf(os.Stderr, "perfbench: cell %s failed: %v\n", c.label, c.err)
	}
}

// checkpointPasses runs the checkpoint workload's timed section: a pass
// that checkpoints the cell, the loss of the newer half of its files,
// and a pass that resumes from the rest. The resumed cell must hash
// equal to the captured one and must not fall back to t=0.
func (b *bench) checkpointPasses(it *iteration, in *inputs, pr *probe) error {
	var t *tracer
	if pr != nil {
		t = pr.t
	}
	p := b.plans[0]
	dir, err := os.MkdirTemp(b.tmp, "ckpt-")
	if err != nil {
		return err
	}
	it.ckptDir = dir
	opts := b.options(pr)
	opts.CheckpointDir = dir
	opts.CheckpointEvery = ckptEvery
	opts.CheckpointKeyframe = ckptKeyframe
	b.pass(it, p, in, opts, pr, p.id+"/capture", nil)

	pi := t.begin("ckpt.prune", p.id, it.span.timed)
	files, err := checkpointFiles(dir)
	if err == nil {
		for _, f := range files {
			it.ckptBytes += f.size
			if strings.HasSuffix(f.path, ".dckpt") {
				it.ckptDeltas++
			}
		}
		it.ckptFiles = len(files)
		keep := len(files) - len(files)/2
		for _, f := range files[keep:] {
			if err = os.Remove(f.path); err != nil {
				break
			}
		}
		if keep > 0 {
			it.keptNewest = files[keep-1].path
		}
	}
	t.end(pi)
	if err != nil {
		return err
	}

	// The runner reports a checkpoint it could not resume through Logf
	// and restarts the cell from t=0. A resumed cell is checked like any
	// other, so it must also hash equal to the captured cell.
	var mu sync.Mutex
	var fallbacks []string
	opts.Resume = true
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fallbacks = append(fallbacks, fmt.Sprintf(format, args...))
	}
	t0 := time.Now()
	b.pass(it, p, in, opts, pr, p.id+"/resume", func() error {
		if len(fallbacks) > 0 {
			return fmt.Errorf("resume fell back: %s", strings.Join(fallbacks, "; "))
		}
		return nil
	})
	it.resumeS = time.Since(t0).Seconds()
	return nil
}

type ckptFile struct {
	path string
	size int64
}

// checkpointFiles lists a checkpoint directory's snapshots oldest
// first; the zero-padded simulated time in the names sorts them.
func checkpointFiles(dir string) ([]ckptFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []ckptFile
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".ckpt") && !strings.HasSuffix(e.Name(), ".dckpt") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, ckptFile{path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}
