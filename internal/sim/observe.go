package sim

import (
	"time"

	"netbatch/internal/obs"
)

// simMetrics holds the per-run pre-resolved metric handles. The zero
// value (all nil) is the disabled fast path: every record method on a
// nil handle returns immediately, so instrumented sites cost one
// predicted branch and zero allocations when Config.Metrics is unset.
// Name lookups happen exactly once per run, in newSimMetrics.
type simMetrics struct {
	events    *obs.Counter   // events dispatched by this run's engine loops
	bursts    *obs.Counter   // optimistic speculative bursts
	snapshots *obs.Counter   // optimistic incremental snapshots pushed
	rollbacks *obs.Counter   // optimistic rollbacks
	undone    *obs.Counter   // events undone by rollbacks (wasted speculation)
	drains    *obs.Counter   // optimistic group-commit drains
	groupSize *obs.Histogram // committed-run length per drain (promoted GroupCommitSize)
	aliasRet  *obs.Counter   // alias retirements (promoted Result.AliasRetirements)
	ckpts     *obs.Counter   // checkpoint snapshots captured
	ckptBytes *obs.Counter   // encoded checkpoint bytes emitted
	qDepth    *obs.Gauge     // event-queue live-depth high-water across shards
	qTombs    *obs.Gauge     // event-queue tombstone high-water across shards
}

func newSimMetrics(r *obs.Registry) simMetrics {
	if r == nil {
		return simMetrics{}
	}
	return simMetrics{
		events:    r.Counter("sim.events"),
		bursts:    r.Counter("sim.opt.bursts"),
		snapshots: r.Counter("sim.opt.snapshots"),
		rollbacks: r.Counter("sim.opt.rollbacks"),
		undone:    r.Counter("sim.opt.undone_events"),
		drains:    r.Counter("sim.opt.commit_drains"),
		groupSize: r.Histogram("sim.opt.group_commit_size"),
		aliasRet:  r.Counter("sim.alias_retirements"),
		ckpts:     r.Counter("sim.checkpoint.captures"),
		ckptBytes: r.Counter("sim.checkpoint.bytes"),
		qDepth:    r.Gauge("sim.queue.depth_max"),
		qTombs:    r.Gauge("sim.queue.tombstones_max"),
	}
}

// sampleQueues records event-queue depth/tombstone high-water marks
// across the given shards. Called only from points where shard kernels
// are quiescent for the caller (the serial loop itself, commit
// passes), never per event.
func (m *simMetrics) sampleQueues(shards []*shard) {
	if m.qDepth == nil {
		return
	}
	var live, tombs int64
	for _, sh := range shards {
		live += int64(sh.k.q.Live())
		tombs += int64(sh.k.q.Tombstones())
	}
	m.qDepth.Max(live)
	m.qTombs.Max(tombs)
}

// progressMeter throttles Config.Progress callbacks to wall-clock
// intervals. A nil meter (Progress unset) no-ops; engines call maybe
// from exactly one goroutine per run (the serial loop or the
// coordinator), always at a point where shard event counts are stable.
type progressMeter struct {
	fn    func(obs.Progress)
	every time.Duration
	next  time.Time
}

func newProgressMeter(cfg *Config) *progressMeter {
	if cfg.Progress == nil {
		return nil
	}
	every := cfg.ProgressEvery
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	return &progressMeter{fn: cfg.Progress, every: every, next: time.Now().Add(every)}
}

func (p *progressMeter) maybe(simT float64, events, rollbacks int64) {
	if p == nil {
		return
	}
	now := time.Now()
	if now.Before(p.next) {
		return
	}
	p.next = now.Add(p.every)
	p.fn(obs.Progress{SimTime: simT, Events: events, Rollbacks: rollbacks})
}
