package sim

import (
	"netbatch/internal/snap"
	"netbatch/internal/stats"
)

// accounting is series accounting: the incremental replacement for
// ASCA's per-minute state scan (§3.1). Instead of queueing one sample
// event per simulated minute, the world integrates
// its piecewise-constant utilization/suspension/wait signals whenever
// its simulated time advances past pending sample ticks. next marches
// by repeated addition of SampleEvery from the run's first submission,
// exactly like the historical event chain, so tick times (and hence
// bin boundaries) are float-identical to ASCA's every-minute scan.
//
// A tick that coincides exactly with an event timestamp reads the
// state after every event at that instant — a deterministic rule,
// where the event-driven sampler resolved such (measure-zero for the
// float-valued synthetic traces) ties by heap insertion order.
//
// Ticks are folded straight into the binned TimeSeries (global
// utilization, suspended, waiting, plus per-site utilization on
// multi-site platforms), reproducing the monolithic engine's output
// bit for bit.
type accounting struct {
	w *world

	on    bool
	next  float64
	every float64

	utilTS, suspTS, waitTS *stats.TimeSeries
	siteTS                 []*stats.TimeSeries
}

func newAccounting(w *world) accounting {
	cfg := &w.cfg
	a := accounting{w: w, every: cfg.SampleEvery}
	// The result always carries (possibly empty) series, even when
	// sampling is disabled.
	a.utilTS = stats.NewTimeSeries(cfg.SeriesBin)
	a.suspTS = stats.NewTimeSeries(cfg.SeriesBin)
	a.waitTS = stats.NewTimeSeries(cfg.SeriesBin)
	if cfg.DisableSampling || len(w.specs) == 0 {
		return a
	}
	a.on = true
	a.next = w.start
	if w.nSites > 1 {
		a.siteTS = make([]*stats.TimeSeries, w.nSites)
		for s := range a.siteTS {
			a.siteTS[s] = stats.NewTimeSeries(cfg.SeriesBin)
		}
	}
	return a
}

// saveAccounting dumps the next-tick cursor plus the binned TimeSeries
// state of every sink. Restoring them lets the integrator continue
// mid-signal with float operations identical to a never-interrupted
// run.
func (w *world) saveAccounting(e *snap.Encoder) {
	a := &w.acct
	e.F64(a.next)
	encodeTS(e, a.utilTS)
	encodeTS(e, a.suspTS)
	encodeTS(e, a.waitTS)
	e.Int(len(a.siteTS))
	for _, ts := range a.siteTS {
		encodeTS(e, ts)
	}
}

func (w *world) loadAccounting(d *snap.Decoder) error {
	a := &w.acct
	a.next = d.F64()
	bin := w.cfg.SeriesBin
	a.utilTS = decodeTS(d, bin)
	a.suspTS = decodeTS(d, bin)
	a.waitTS = decodeTS(d, bin)
	if d.Int() != len(a.siteTS) {
		d.Fail()
	}
	for s := range a.siteTS {
		a.siteTS[s] = decodeTS(d, bin)
	}
	return d.Err()
}

// encodeTS/decodeTS serialize one TimeSeries accumulator (nil-aware:
// the three global sinks always exist, but site series exist only on
// multi-site platforms).
func encodeTS(e *snap.Encoder, ts *stats.TimeSeries) {
	if ts == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	sums, counts := ts.Dump()
	e.F64s(sums)
	e.I64s(counts)
}

func decodeTS(d *snap.Decoder, bin float64) *stats.TimeSeries {
	if !d.Bool() {
		return nil
	}
	sums := d.F64sN(-1)
	counts := d.I64sN(-1)
	if d.Err() != nil || len(sums) != len(counts) {
		d.Fail()
		return nil
	}
	return stats.RestoreTimeSeries(bin, sums, counts)
}

// advanceTo records every pending sample tick with time strictly
// before now. The observed signals are piecewise-constant between the
// world's events, so the current counters are exactly what an
// event-driven sampler would have read at each of those ticks.
func (a *accounting) advanceTo(now float64) {
	if !a.on {
		return
	}
	for a.next < now {
		a.tick()
	}
}

func (a *accounting) tick() {
	w := a.w
	// The denominator is the platform's machine core total, exactly as
	// the monolithic sampler computed it.
	util := 0.0
	if w.totalCores > 0 {
		util = float64(w.scopeBusy) / float64(w.totalCores) * 100
	}
	a.utilTS.Add(a.next, util)
	a.suspTS.Add(a.next, float64(w.scopeSuspended))
	a.waitTS.Add(a.next, float64(w.scopeWaiting))
	for s, ts := range a.siteTS {
		su := 0.0
		if w.siteCores[s] > 0 {
			su = float64(w.siteBusy[s]) / float64(w.siteCores[s]) * 100
		}
		ts.Add(a.next, su)
	}
	a.next += a.every
}
