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
	events    *obs.Counter // events dispatched by the loop
	aliasRet  *obs.Counter // alias retirements (promoted Result.AliasRetirements)
	ckpts     *obs.Counter // checkpoint snapshots captured
	ckptBytes *obs.Counter // encoded checkpoint bytes emitted
	qDepth    *obs.Gauge   // event-queue live-depth high-water
	qTombs    *obs.Gauge   // event-queue tombstone high-water
}

func newSimMetrics(r *obs.Registry) simMetrics {
	if r == nil {
		return simMetrics{}
	}
	return simMetrics{
		events:    r.Counter("sim.events"),
		aliasRet:  r.Counter("sim.alias_retirements"),
		ckpts:     r.Counter("sim.checkpoint.captures"),
		ckptBytes: r.Counter("sim.checkpoint.bytes"),
		qDepth:    r.Gauge("sim.queue.depth_max"),
		qTombs:    r.Gauge("sim.queue.tombstones_max"),
	}
}

// progressMeter throttles Config.Progress callbacks to wall-clock
// intervals. A nil meter (Progress unset) no-ops; the loop calls maybe
// between events.
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

func (p *progressMeter) maybe(simT float64, events int64) {
	if p == nil {
		return
	}
	now := time.Now()
	if now.Before(p.next) {
		return
	}
	p.next = now.Add(p.every)
	p.fn(obs.Progress{SimTime: simT, Events: events})
}
