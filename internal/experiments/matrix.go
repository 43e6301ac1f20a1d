package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"netbatch/internal/cluster"
	"netbatch/internal/job"
	"netbatch/internal/metrics"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
	"netbatch/internal/stats"
	"netbatch/internal/trace"
)

// Scenario declaratively describes one simulated environment: how to
// synthesize its workload, build its platform, and configure the
// engine. Scenarios are pure descriptions — the matrix runner decides
// when (and on which worker) each one executes, and memoizes the
// expensive trace/platform construction across cells.
type Scenario struct {
	// ID labels the scenario in results and errors.
	ID string
	// Trace synthesizes the workload for one replication seed at the
	// given scale. Must be deterministic in (seed, scale).
	Trace func(seed uint64, scale float64) (*trace.Trace, error)
	// Platform builds the machine/pool model at the given scale. Must
	// be deterministic in scale; the built platform is read-only and is
	// shared by every cell of the scenario.
	Platform func(scale float64) (*cluster.Platform, error)
	// NewInitial constructs the virtual pool manager's initial
	// scheduler. Called once per cell: schedulers are stateful.
	NewInitial func() sched.InitialScheduler
	// Staleness is the §3.2.2 utilization-view propagation delay in
	// minutes (0 = live view).
	Staleness float64
	// Faults optionally enables the engine's fault & maintenance
	// subsystem under the given regime for every cell. Its Seed is
	// ignored: each cell's fault stream seed forks from the replicate
	// seed with a fixed key, so replicates see independent fault
	// sequences and results stay coordinate-deterministic.
	Faults *sim.FaultConfig
	// Tune optionally adjusts the final engine config (knobs such as
	// SampleEvery or DisableSampling).
	Tune func(*sim.Config)
}

// faultSeedKey derives a cell's fault stream from its replicate seed
// without overlapping the trace or policy derivations.
const faultSeedKey = 0xFA017

// Matrix is a declarative (scenario × policy × seed) experiment plan.
// RunAll executes the cells of one or more matrices on a bounded worker
// pool; results are identical regardless of worker count or scheduling
// order because each cell's randomness derives purely from its
// coordinates.
type Matrix struct {
	Scenarios []Scenario
	Policies  []PolicyFactory
	// Seeds are the per-replicate trace seeds. Leave empty to derive
	// them from Options.Seed/Options.Seeds via ReplicateSeeds.
	Seeds []uint64
}

// Cell names one matrix coordinate.
type Cell struct {
	// Scenario, Policy and Rep index into the matrix axes.
	Scenario, Policy, Rep int
	// Seed is the replicate's trace seed.
	Seed uint64
}

// CellResult is one completed cell.
type CellResult struct {
	Cell    Cell
	Summary metrics.Summary
	Result  *sim.Result
}

// MatrixResult holds every cell of a completed matrix in deterministic
// axis order (scenario-major, then policy, then replicate). Every
// cell's full *sim.Result (job records + series) stays live until the
// MatrixResult is dropped — the figure experiments need per-replicate
// Results — so very large seed counts at paper scale trade memory for
// replication. A retained cell costs about 166 B per job (benchsnap's
// retainedB/job): a 152 B record in the run's one slab plus its
// Result.Jobs pointer. The records of every policy cell of one
// (scenario, replicate) point at that trace's shared specs, 104 B per
// job. Reduce per-cell data promptly if that becomes a limit.
type MatrixResult struct {
	// ScenarioIDs are the scenario axis labels, in run order.
	ScenarioIDs []string
	// Platforms are the scenarios' built platforms, aligned with
	// ScenarioIDs. Every cell of a scenario ran on its one platform.
	Platforms []*cluster.Platform
	// PolicyNames are the policy axis labels, in run order.
	PolicyNames []string
	// Seeds are the replicate seeds actually used.
	Seeds []uint64

	nPol, nRep int
	cells      []CellResult
}

// At returns the cell at (scenario, policy, replicate).
func (r *MatrixResult) At(s, p, rep int) *CellResult {
	return &r.cells[(s*r.nPol+p)*r.nRep+rep]
}

// Replicates returns the per-seed summaries of one (scenario, policy)
// pair, in replicate order.
func (r *MatrixResult) Replicates(s, p int) []metrics.Summary {
	out := make([]metrics.Summary, r.nRep)
	for rep := 0; rep < r.nRep; rep++ {
		out[rep] = r.At(s, p, rep).Summary
	}
	return out
}

// ReplicateSeeds expands a base seed into n replication seeds. The
// first replicate keeps the base seed itself, so single-seed matrix
// runs reproduce the historical per-table results exactly; later
// replicates fork with keyed, order-independent derivation
// (stats.ForkSeed), so a replicate's stream never depends on how many
// cells ran before it or on which worker.
func ReplicateSeeds(base uint64, n int) []uint64 {
	if n < 1 {
		n = 1
	}
	seeds := make([]uint64, n)
	seeds[0] = base
	for r := 1; r < n; r++ {
		seeds[r] = stats.ForkSeed(base, uint64(r))
	}
	return seeds
}

// policySeed derives the policy RNG seed for a cell. The formula for
// policy index p matches the historical runStrategies derivation so
// seed-42 single-replicate results are unchanged.
func policySeed(seed uint64, p int) uint64 {
	return seed + uint64(p)*7919
}

// memo is a concurrency-safe build-once-per-key cache. Every caller of
// get blocks until the single builder for its key completes, so shared
// traces and platforms are constructed exactly once per matrix run.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (c *memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[K]*memoEntry[V])
	}
	e, ok := c.entries[k]
	if !ok {
		e = &memoEntry[V]{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// traceKey identifies a memoized trace: scenario × replicate.
type traceKey struct{ s, rep int }

// matrixRun is one distinct matrix of a RunAll call: the result its
// cells fill in, the traces and platforms they share, and the error of
// each cell that failed.
type matrixRun struct {
	m      Matrix
	res    *MatrixResult
	errs   []error
	plats  memo[int, *cluster.Platform]
	traces memo[traceKey, *trace.Trace]
}

func newMatrixRun(m Matrix, opts Options) (*matrixRun, error) {
	if len(m.Scenarios) == 0 {
		return nil, fmt.Errorf("experiments: matrix has no scenarios")
	}
	if len(m.Policies) == 0 {
		return nil, fmt.Errorf("experiments: matrix has no policies")
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = ReplicateSeeds(opts.Seed, opts.Seeds)
	}
	res := &MatrixResult{
		Platforms: make([]*cluster.Platform, len(m.Scenarios)),
		Seeds:     seeds,
		nPol:      len(m.Policies),
		nRep:      len(seeds),
	}
	for _, sc := range m.Scenarios {
		res.ScenarioIDs = append(res.ScenarioIDs, sc.ID)
	}
	for _, p := range m.Policies {
		res.PolicyNames = append(res.PolicyNames, p.Name)
	}
	n := len(m.Scenarios) * len(m.Policies) * len(seeds)
	res.cells = make([]CellResult, n)
	return &matrixRun{m: m, res: res, errs: make([]error, n)}, nil
}

// sameCells reports whether r and o have equal scenario IDs, policy
// names and seeds. A scenario ID also names its cells' checkpoint
// files, so scenarios sharing one must be the same scenario
// (TestPlansSharingAScenarioAgree holds the registered plans to that).
func (r *matrixRun) sameCells(o *matrixRun) bool {
	return slices.Equal(r.res.ScenarioIDs, o.res.ScenarioIDs) &&
		slices.Equal(r.res.PolicyNames, o.res.PolicyNames) &&
		slices.Equal(r.res.Seeds, o.res.Seeds)
}

// runCell simulates cell i (scenario-major, then policy, then
// replicate) and stores its result at its fixed position.
func (r *matrixRun) runCell(i int, opts Options) error {
	res := r.res
	rep := i % res.nRep
	p := (i / res.nRep) % res.nPol
	s := i / (res.nRep * res.nPol)
	sc := &r.m.Scenarios[s]
	pf := r.m.Policies[p]
	seed := res.Seeds[rep]

	plat, err := r.plats.get(s, func() (*cluster.Platform, error) {
		plat, err := sc.Platform(opts.Scale)
		res.Platforms[s] = plat
		return plat, err
	})
	if err != nil {
		return fmt.Errorf("experiments: scenario %s: platform: %w", sc.ID, err)
	}
	tr, err := r.traces.get(traceKey{s, rep}, func() (*trace.Trace, error) {
		return sc.Trace(seed, opts.Scale)
	})
	if err != nil {
		return fmt.Errorf("experiments: scenario %s seed %d: trace: %w", sc.ID, seed, err)
	}
	cfg := buildCellConfig(sc, pf, p, seed, plat, opts)
	run, err := simulateCell(cfg, tr.Jobs, sc.ID, pf.Name, p, rep, opts)
	var sum metrics.Summary
	if err == nil {
		sum, err = metrics.Summarize(run.Jobs)
	}
	if err != nil {
		return fmt.Errorf("experiments: scenario %s strategy %s seed %d: %w", sc.ID, pf.Name, seed, err)
	}
	res.cells[i] = CellResult{
		Cell:    Cell{Scenario: s, Policy: p, Rep: rep, Seed: seed},
		Summary: sum,
		Result:  run,
	}
	return nil
}

// RunAll executes the cells of every matrix in ms on one pool of
// opts.Jobs workers (default runtime.NumCPU()), fed in matrix order,
// then axis order. A matrix whose scenario IDs, policy names and seeds
// repeat an earlier one's is not run again but shares its
// *MatrixResult, so no cell runs twice and no two workers write the
// same checkpoint file. Results are byte-identical to a serial run:
// every cell's randomness is a pure function of its coordinates.
// Cancelling opts.Context stops the feed and aborts in-flight
// simulations at their next poll. The result is aligned with ms; on
// failure it holds each matrix whose cells all finished, nil for the
// others, and the error is the first failure in feed order.
func RunAll(ms []Matrix, opts Options) ([]*MatrixResult, error) {
	opts = opts.withDefaults()
	runs := make([]*matrixRun, len(ms))
	var distinct []*matrixRun
	n := 0
	for i, m := range ms {
		r, err := newMatrixRun(m, opts)
		if err != nil {
			return nil, err
		}
		if j := slices.IndexFunc(distinct, r.sameCells); j >= 0 {
			runs[i] = distinct[j]
			continue
		}
		runs[i] = r
		distinct = append(distinct, r)
		n += len(r.errs)
	}

	type cellRef struct {
		r *matrixRun
		i int
	}
	ctx := opts.Context
	refs := make(chan cellRef)
	var wg sync.WaitGroup
	for w := 0; w < min(opts.Jobs, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range refs {
				c.r.errs[c.i] = c.r.runCell(c.i, opts)
			}
		}()
	}
feed:
	for _, r := range distinct {
		for i := range r.errs {
			select {
			case refs <- cellRef{r, i}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(refs)
	wg.Wait()

	// Cells are fed in order, so the ones that never ran (no result, no
	// error) follow every one that did.
	out := make([]*MatrixResult, len(ms))
	var first error
	for i, r := range runs {
		j := slices.IndexFunc(r.res.cells, func(c CellResult) bool { return c.Result == nil })
		switch {
		case j < 0:
			out[i] = r.res
		case first == nil && r.errs[j] == nil:
			first = fmt.Errorf("experiments: matrix canceled: %w", ctx.Err())
		case first == nil:
			first = r.errs[j]
		}
	}
	return out, first
}

// Run executes every cell of the matrix: RunAll of this one matrix.
func (m Matrix) Run(opts Options) (*MatrixResult, error) {
	rs, err := RunAll([]Matrix{m}, opts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// buildCellConfig assembles one cell's engine configuration from its
// coordinates: fresh scheduler/policy instances (both are stateful),
// coordinate-derived policy and fault seeds, scenario knobs. Every run
// of a cell assembles the same configuration, so a resumed cell
// hash-matches the snapshots its earlier run emitted.
func buildCellConfig(sc *Scenario, pf PolicyFactory, p int, seed uint64, plat *cluster.Platform, opts Options) sim.Config {
	cfg := sim.Config{
		Platform:           plat,
		Initial:            sc.NewInitial(),
		Policy:             pf.New(policySeed(seed, p)),
		RescheduleOverhead: opts.Overhead,
		UtilStaleness:      sc.Staleness,
		Context:            opts.Context,
		Metrics:            opts.Metrics,
	}
	if sc.Faults != nil {
		cfg.Faults = *sc.Faults
		cfg.Faults.Seed = stats.ForkSeed(seed, faultSeedKey)
	}
	if sc.Tune != nil {
		sc.Tune(&cfg)
	}
	return cfg
}

// cellCheckpointPrefix names a cell's checkpoint files inside the
// checkpoint directory; each emitted snapshot appends its zero-padded
// simulated time, so filenames sort chronologically and two runs write
// the same names.
func cellCheckpointPrefix(dir, scenarioID string, p, rep int) string {
	safe := strings.NewReplacer("/", "_", string(filepath.Separator), "_", ":", "_").Replace(scenarioID)
	return filepath.Join(dir, fmt.Sprintf("%s_p%d_r%d", safe, p, rep))
}

// cellCheckpointFiles lists a cell's checkpoint files — full (.ckpt)
// and delta (.dckpt) — sorted chronologically. The zero-padded time in
// the name sorts lexically, and each emitted time appears exactly once,
// so mixing the two extensions cannot reorder the chain.
func cellCheckpointFiles(prefix string) []string {
	full, _ := filepath.Glob(prefix + "_t*.ckpt")
	delta, _ := filepath.Glob(prefix + "_t*.dckpt")
	files := append(full, delta...)
	sort.Strings(files)
	return files
}

// latestCheckpoint returns the newest checkpoint file of a cell, or ""
// when none exists.
func latestCheckpoint(prefix string) string {
	files := cellCheckpointFiles(prefix)
	if len(files) == 0 {
		return ""
	}
	return files[len(files)-1]
}

// LoadCheckpoint reads one checkpoint file and returns full snapshot
// bytes ready for sim resume. A delta file (.dckpt)
// is reconstructed from its keyframe chain: the loader walks the
// cell's sibling files back to the nearest full snapshot and applies
// every delta in emission order, with each step's base CRC guarding
// against gaps or cross-run mixing. Failures along the chain wrap
// sim.ErrSnapshotMismatch.
func LoadCheckpoint(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !sim.IsDeltaSnapshot(data) {
		return data, nil
	}
	cut := strings.LastIndex(path, "_t")
	if cut < 0 {
		return nil, fmt.Errorf("%w: delta snapshot %s has no _t<time> chain name", sim.ErrSnapshotMismatch, path)
	}
	prefix := path[:cut]
	files := cellCheckpointFiles(prefix)
	at := sort.SearchStrings(files, path)
	if at == len(files) || files[at] != path {
		return nil, fmt.Errorf("%w: delta snapshot %s not found among its cell's files", sim.ErrSnapshotMismatch, path)
	}
	// Walk back to the nearest full snapshot, then replay the deltas
	// forward from it.
	key := -1
	for i := at - 1; i >= 0; i-- {
		if strings.HasSuffix(files[i], ".ckpt") && !strings.HasSuffix(files[i], ".dckpt") {
			key = i
			break
		}
	}
	if key < 0 {
		return nil, fmt.Errorf("%w: delta snapshot %s has no preceding keyframe", sim.ErrSnapshotMismatch, path)
	}
	base, err := os.ReadFile(files[key])
	if err != nil {
		return nil, err
	}
	for i := key + 1; i <= at; i++ {
		delta, err := os.ReadFile(files[i])
		if err != nil {
			return nil, err
		}
		if base, err = sim.ApplySnapshotDelta(base, delta); err != nil {
			return nil, fmt.Errorf("%s: %w", files[i], err)
		}
	}
	return base, nil
}

// simulateCell executes one cell's simulation, wiring in per-cell
// checkpoint emission and resume when Options.CheckpointDir is set.
// Snapshots land atomically as <cell>_t<time>.ckpt — the history is
// kept, both for delta chains (which reach back to their keyframe) and
// for comparing two runs' directories with `diff -r`. With
// Options.Resume the cell continues from its newest checkpoint and
// re-simulates only the tail. A checkpoint that cannot be resumed
// (corrupted, or from a different build or configuration) falls back
// to a fresh run with a Logf warning — never to a wrong result, since
// resume bit-identity is the simulator's contract and mismatches are
// rejected up front.
func simulateCell(cfg sim.Config, specs []job.Spec, scenarioID, policyName string, p, rep int, opts Options) (*sim.Result, error) {
	done := cellTelemetry(&cfg, specs, scenarioID, policyName, rep, opts)
	r, err := simulateCellCheckpointed(cfg, specs, scenarioID, policyName, p, rep, opts)
	done(r, err)
	return r, err
}

// simulateCellCheckpointed is simulateCell's checkpoint-handling
// core; the wrapper above brackets it with telemetry so every exit
// path — fresh run, resume, or fallback — emits exactly one cell_done
// record.
func simulateCellCheckpointed(cfg sim.Config, specs []job.Spec, scenarioID, policyName string, p, rep int, opts Options) (*sim.Result, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.CheckpointDir == "" {
		return sim.Run(cfg, specs)
	}
	if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	prefix := cellCheckpointPrefix(opts.CheckpointDir, scenarioID, p, rep)
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1440 // one simulated day
	}
	cfg.CheckpointEvery = every
	cfg.CheckpointKeyframe = opts.CheckpointKeyframe
	cfg.CheckpointLabel = fmt.Sprintf("%s/%s/%d", scenarioID, policyName, rep)
	cfg.CheckpointSink = func(ck sim.Checkpoint) error {
		ext := ".ckpt"
		if ck.Delta {
			ext = ".dckpt"
		}
		path := fmt.Sprintf("%s_t%014.1f%s", prefix, ck.Time, ext)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, ck.Data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if opts.Resume {
		if path := latestCheckpoint(prefix); path != "" {
			r, err := resumeCell(cfg, specs, path)
			if err == nil {
				return r, nil
			}
			if !errors.Is(err, sim.ErrSnapshotMismatch) {
				return nil, err
			}
			logf("experiments: cell %s: checkpoint %s not resumable (%v); restarting from t=0", cfg.CheckpointLabel, path, err)
			cfg.ResumeFrom = nil
		}
	}
	return sim.Run(cfg, specs)
}

// resumeCell loads one checkpoint file — reconstructing a delta chain
// when needed — and resumes the cell from it.
func resumeCell(cfg sim.Config, specs []job.Spec, path string) (*sim.Result, error) {
	data, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	cfg.ResumeFrom = data
	return sim.Run(cfg, specs)
}
