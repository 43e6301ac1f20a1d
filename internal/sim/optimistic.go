package sim

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"netbatch/internal/eventq"
	"netbatch/internal/obs"
	"netbatch/internal/stats"
)

// This file is the optimistic (Time Warp) engine: the partitioned
// alternative to the serial loop. It runs one shard (kernel + subsystem
// state) per site and produces results bit-identical to the serial
// reference loop. Events split into two classes:
//
//   - Non-deciding events touch only their own shard's state, so
//     shards run them speculatively, far past each other's clocks, with
//     no synchronization at all.
//   - Deciding events (submissions, suspension decisions, wait-timeout
//     reschedules, and handoffs promoted under alias risk) consult
//     shared scheduler/policy state and may read any site's pool state
//     through the view, so they execute one at a time under global
//     quiescence, in timestamp order. Before each commit every shard
//     that sped past the decision time is rolled back to just below it,
//     so the decision observes precisely the state a serial run would.
//
// Rollback rides the checkpoint state contract and the delta encoder:
// each shard keeps a small stack of incremental snapshots (the
// registered state codecs, concatenated; older stack entries are
// reverse-delta-compressed against their newer neighbor), taken every
// snapEvery events while speculating. Undo is: reset the event queues,
// decode the codec sections positionally, truncate the per-event logs,
// then re-execute the restored queue up to the commit time.
// Speculative events never send cross-shard messages — sends originate
// only from deciding dispatches, which never speculate — so queue
// restoration is the entire anti-message machinery: there is nothing
// in flight to cancel.
//
// Two horizons bound each speculation burst, both computed at
// quiescence from the fences every shard publishes (see
// shard.publishedFence):
//
//	safe_i = min over peers j != i of publishedFence(j)
//	cap    = min(min fence + window, td)
//
// safe_i deliberately excludes shard i's own fence: a shard parks at
// its own deciding heads, and decisions it arms dynamically enter its
// own queue ahead of it in time order, so the only commits that can
// ever roll shard i back belong to its peers — each bounded below by
// that peer's fence at every earlier instant. Events below safe_i are
// therefore commit-certain and need no snapshots; events in
// [safe_i, cap) are speculative and snapshot-protected. The cap never
// crosses td, the earliest known decision time: a quiescent commit at
// td undoes every shard that reached it and spawns follow-up decisions
// only at or after it, so speculation past td is guaranteed waste.
// Rollbacks are thereby confined to decisions that did not exist when
// the burst launched — suspension decisions and wait timeouts armed
// inside the minDyn window by a peer's own speculation. The adaptive
// window on top of the fences halves when a commit had to undo work
// and doubles after a run of clean commits.
//
// On a single P (GOMAXPROCS=1) speculation cannot overlap with any
// other work, so its insurance cost — a snapshot before every at-risk
// event — buys nothing. The coordinator then runs bursts inline and
// clamps each shard to its certain region: cap_i = safe_i, no
// snapshots, no rollbacks, ever. Progress still holds: if no shard can
// drain, the lowest queue head is blocked by a peer's decideFence or
// promoted handoff (the minDyn fence terms sit strictly above the
// lowest head), which makes td committable, and the loop commits
// instead of bursting.
//
// The global virtual time of classic Time Warp is simply the last
// commit time: snapshot stacks never span a commit (every deciding
// commit clears them — its message deliveries and its gseq increment
// both invalidate older queue captures), so all retained state is
// newer than GVT by construction and no separate GVT pass is needed.
//
// Determinism: every deciding commit increments gseq and stamps it as
// the kernel phase (see kernel.phase), so same-time events created by
// different decisions rank in creation order across shards, and a
// decision's cross-shard sends are delivered pre-sorted in
// (Time, G, Idx) order. Exact cross-shard timestamp ties whose serial
// order cannot be reconstructed are resolved deterministically
// (decider first, then lower shard index) and flagged in
// Result.ambiguousTies instead of silently ordered. Such ties are
// measure-zero for the float-valued synthetic traces; the one
// structural tie — the first submission and the initial snapshot
// refreshes share the trace's start time — is provably ordered (the
// serial engine schedules the submission first) and is not flagged.
//
// While a cross-site aliased job is machine-attached (w.aliasLive > 0)
// handoffs everywhere become deciding and may mutate remote machine
// state, so speculation pauses: cap collapses to safe and every stack
// is cleared. Progress then degrades to fence-bounded bursts plus
// serialized commits, which is still exact — and once the last aliased
// job detaches (the ledger retires the risk, see world.aliasLive),
// handoffs demote back to shard-local events and speculation resumes.

// outMsg is one cross-shard event awaiting delivery at the end of its
// deciding commit: the inline payload words plus the (creating decision
// g, send index idx) pair for tie ranking. The destination shard is
// encoded by which per-dest buffer holds the message (parShard.outbox).
type outMsg struct {
	t    float64
	kind kind
	a, b int64
	g    uint64
	idx  uint64
}

// busyShift is one busy-core mutation a shard applied to a machine at
// another site (see shard.addBusy): run-scoped, used by the series
// merge to move the sample attribution from the executing shard to the
// machine's site.
type busyShift struct {
	t     float64
	exec  int
	site  int
	delta int32
}

// parShard is the per-shard bookkeeping of a partitioned run.
type parShard struct {
	// outbox holds the committing decision's outgoing cross-shard
	// messages, one buffer per destination shard. Buffers are truncated
	// (not freed) at each delivery, so steady-state commits append into
	// warm storage.
	outbox [][]outMsg
	// outboxN counts the messages currently buffered across all of this
	// shard's outbox buffers, so a commit can skip the per-destination
	// walk when nothing was sent.
	outboxN int

	// busyShifts logs cross-site busy mutations for the whole run.
	busyShifts []busyShift
	// evTimes/evFin log the shard's processed events for the whole run:
	// the event time and, for completions, the finished job index (-1
	// otherwise). They let the merge count events exactly the way the
	// serial loop — which dies at the last completion — does, and
	// rollback truncates them.
	evTimes []float64
	evFin   []int32
	polls   int64
	msgSeq  uint64
}

// optEntry is one incremental rollback snapshot: the shard's codec
// sections at a moment where sh.k.now == clock and the head of its
// queue was about to execute. Entries older than the newest are
// stored as reverse deltas against their next-newer neighbor.
type optEntry struct {
	clock   float64
	logLen  int // len(par.evTimes) at capture, for log truncation
	data    []byte
	isDelta bool
}

// optShard is the optimistic engine's per-shard bookkeeping. Its
// presence (shard.opt != nil) also switches the accounting and
// placement codecs into light mode: append-only logs shrink to a
// truncation length and the job loop narrows to the records this
// shard's speculation can actually mutate.
type optShard struct {
	// capT/safeT are published by the coordinator at quiescence and
	// copied by the worker before each burst: events at or above capT
	// wait for the next commit; events below safeT are commit-certain
	// and execute without snapshot protection.
	capT, safeT float64

	stack     []optEntry
	sinceSnap int // events executed since the newest stack entry

	// finMax is the latest completion time this shard has logged (and
	// not rolled back): the incremental form of scanning evFin for the
	// run's last finish. Rollback truncation rescans the surviving
	// log prefix when the truncated suffix could have held the maximum.
	finMax float64

	encBuf []byte // snapshot encoder scratch, reused across captures

	// bufPool recycles stack-entry buffers (raw captures and delta op
	// streams alike) between bursts: every deciding commit clears all
	// stacks, so without reuse each speculative burst re-allocates its
	// whole snapshot footprint. deltaIdx is the delta encoder's block
	// index, reused the same way.
	bufPool  [][]byte
	deltaIdx deltaIndex

	// inTransit is stashed by the core codec's queue save (which runs
	// first) for the placement codec's capture scope: jobs with a
	// pending arrive event are mutated by speculative arrival even
	// though no pool structure holds them yet.
	inTransit []int
	// scopeIdx/scopeSeen are the placement codec's capture-scope
	// scratch (see placementSys.jobScope).
	scopeIdx  []int
	scopeSeen []bool
}

// optCoord drives the engine: persistent per-shard burst workers on
// one condvar, and a serial coordinator that alternates between
// resuming bursts and committing decisions under quiescence.
type optCoord struct {
	w      *world
	shards []*shard

	mu      sync.Mutex
	cond    *sync.Cond
	gen     int // burst generation; workers run one burst per increment
	running int
	stop    bool
	aborted bool
	err     error

	// Serial-side state (coordinator goroutine only, or quiescent).
	ties      bool
	gseq      uint64
	kSubmit   int
	kSnapshot int
	batch     []eventq.Delivery

	// Adaptive speculation: window is the time width shards may run
	// past the fence-safe horizon, snapEvery the event cadence of
	// rollback snapshots inside that window. Both halve when a commit
	// undid speculative work and grow back after clean commits.
	delta     float64
	window    float64
	snapEvery int
	clean     int
	wasted    int // speculative events undone since the last deciding commit

	// groupHist accumulates Result.GroupCommitSize: log2-bucketed run
	// lengths of the quiescent commit drain.
	groupHist []int64

	// rolls counts this run's rollbacks for Result.Rollbacks; plain
	// int because rollbacks happen only under global quiescence on the
	// coordinator goroutine. tk is the coordinator timeline lane (nil
	// when tracing is off) — rollbacks and commit drains render there
	// because they, too, run only at quiescence.
	rolls int64
	tk    *obs.Track

	// Per-shard fence caches for the commit drain, refilled by each
	// quiescent pass and thereafter recomputed only for shards whose
	// queues a commit actually changed: most retired heads touch the
	// decider's queues alone, so re-peeking every peer per commit is
	// pure waste. Staleness detection is by the queues' monotone
	// mutation counters, which a commit cannot bypass — even the
	// cross-shard paths (outbox deliveries, a deciding dispatch
	// canceling a peer's pending event through its evRef) go through
	// counted queue operations. Cross-shard alias-risk side effects
	// (noteAway on a peer) change only the aliasRisk gate, which the
	// drain reads live, never a cached value.
	qMuts  []uint64
	qNext  []float64 // main-queue head time (or +inf)
	dFence []float64 // decideFence(): shadow decide head / chain submit
	hoff   []float64 // nextHandoff(): shadow handoff head (or +inf)
}

// shardMuts sums shard i's queue mutation counters: an unchanged sum
// between two quiescent instants proves all three pending sets — and
// hence every cached fence value — are unchanged. (nextChainSubmit is
// covered too: it only advances when the shard dispatches a submit,
// which pops the main queue.)
func (c *optCoord) shardMuts(i int) uint64 {
	k := c.shards[i].k
	m := k.q.Muts()
	if k.decideQ != nil {
		m += k.decideQ.Muts()
	}
	if k.handoffQ != nil {
		m += k.handoffQ.Muts()
	}
	return m
}

// refreshFenceCache recomputes shard i's cached queue heads.
func (c *optCoord) refreshFenceCache(i int) {
	sh := c.shards[i]
	t, ok := sh.k.q.NextTime()
	if !ok {
		t = inf
	}
	c.qNext[i] = t
	c.dFence[i] = sh.decideFence()
	c.hoff[i] = sh.k.nextHandoff()
	c.qMuts[i] = c.shardMuts(i)
}

// cachedFence is publishedFence computed from the caches: exact (not
// just conservative) whenever shard i's mutation counters still match
// c.qMuts[i], since every fence source is cached and the alias gate is
// read live.
func (c *optCoord) cachedFence(i int) float64 {
	sh := c.shards[i]
	f := c.dFence[i]
	if sh.aliasRisk > 0 || sh.w.aliasLive > 0 {
		if h := c.hoff[i]; h < f {
			f = h
		}
	}
	if t := c.qNext[i] + sh.w.minDyn; t < f {
		f = t
	}
	return f
}

// optSnapshots and optRollbacks count snapshot pushes and rollbacks
// across every optimistic run in the process. They exist for tests,
// which assert that the Time Warp machinery genuinely engages when
// speculation is forced on; both atomic adds sit on paths that copy or
// decode whole codec sections, so their cost is noise.
var (
	optSnapshots atomic.Int64
	optRollbacks atomic.Int64
)

// optUncapped removes the speculation cap at the earliest known
// decision time td. Production never wants that — a quiescent commit
// at td undoes every shard that ran to or past it, so uncapped bursts
// buy nothing but rollbacks — which is exactly why tests set it (with
// the worker path forced): it drives systematic rollbacks through the
// full snapshot/restore/replay cycle on ordinary workloads.
var optUncapped = false

func (c *optCoord) fail(err error) {
	c.mu.Lock()
	if !c.aborted {
		c.aborted, c.err = true, err
	}
	c.mu.Unlock()
}

// runBurst speculatively drains one shard: non-deciding events below
// capT execute lock-free (they touch only this shard's state), with a
// rollback snapshot pushed before the first event at or above safeT
// and then every snapEvery events. The burst parks at the cap, at a
// deciding-classified head, or past MaxTime; the coordinator decides
// what happens next.
func (c *optCoord) runBurst(sh *shard, capT, safeT float64) {
	o := sh.opt
	k := sh.k
	w := c.w
	ctx := w.cfg.Context
	w.met.bursts.Add(1)
	if tk := sh.trace; tk != nil {
		bt0 := tk.Now()
		ev0 := len(sh.par.evTimes)
		defer func() {
			// Parked bursts (head already at the cap) stay off the
			// timeline; only bursts that executed something render.
			if n := len(sh.par.evTimes) - ev0; n > 0 {
				tk.Span("burst", bt0, obs.Arg{Key: "events", Val: int64(n)})
			}
		}()
	}
	for {
		ev, ok := k.q.Peek()
		if !ok || ev.Time >= capT || ev.Time > w.cfg.MaxTime {
			return
		}
		t := ev.Time
		if t < k.now {
			c.fail(fmt.Errorf("sim: event time went backwards: %v -> %v", k.now, t))
			return
		}
		if k.decides(ev.Kind) || ((sh.aliasRisk > 0 || w.aliasLive > 0) && k.isHandoff(ev.Kind)) {
			return
		}
		if t >= safeT && (len(o.stack) == 0 || o.sinceSnap >= c.snapEvery) {
			c.pushSnapshot(sh)
		}
		ev, _ = k.q.Pop()
		if k.isHandoff(ev.Kind) {
			k.handoffQ.Pop()
		}
		k.now = t
		sh.acct.advanceTo(t)
		err := k.dispatch(ev)
		fin := int32(-1)
		if ev.Kind == int(sh.place.finish) {
			fin = int32(ev.A)
		}
		k.releaseRef(ev)
		sh.par.evTimes = append(sh.par.evTimes, t)
		sh.par.evFin = append(sh.par.evFin, fin)
		if fin >= 0 && t > o.finMax {
			o.finMax = t
		}
		o.sinceSnap++
		if err != nil {
			c.fail(fmt.Errorf("sim: t=%v: %w", t, err))
			return
		}
		if sh.par.polls++; ctx != nil && sh.par.polls&63 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				c.fail(fmt.Errorf("sim: canceled at t=%v: %w", t, cerr))
				return
			}
		}
	}
}

// pushSnapshot captures the shard's codec sections onto its rollback
// stack. The previously-newest entry is reverse-delta-compressed
// against the fresh capture when that wins: restores walk the stack
// newest-to-target applying deltas, so only the newest entry must
// stay raw.
func (c *optCoord) pushSnapshot(sh *shard) {
	o := sh.opt
	e := snapEncoder{buf: o.encBuf[:0]}
	for _, cd := range sh.k.codecs {
		cd.save(&e)
	}
	o.encBuf = e.buf
	data := append(o.getBuf(), e.buf...)
	if n := len(o.stack); n > 0 {
		prev := &o.stack[n-1]
		if !prev.isDelta {
			dl := encodeSnapshotDeltaInto(o.getBuf(), &o.deltaIdx, data, prev.data,
				crc32.Checksum(data, castagnoli), crc32.Checksum(prev.data, castagnoli),
				DeltaMeta{BaseTime: sh.k.now, Time: prev.clock})
			if len(dl) < len(prev.data) {
				o.putBuf(prev.data)
				prev.data, prev.isDelta = dl, true
			} else {
				o.putBuf(dl)
			}
		}
	}
	optSnapshots.Add(1)
	c.w.met.snapshots.Add(1)
	sh.trace.Instant("snapshot")
	o.stack = append(o.stack, optEntry{
		clock:  sh.k.now,
		logLen: len(sh.par.evTimes),
		data:   data,
	})
	o.sinceSnap = 0
}

// getBuf takes a recycled buffer (length 0, capacity warm) off the
// shard's pool, or returns nil — append semantics make the two
// interchangeable.
func (o *optShard) getBuf() []byte {
	if n := len(o.bufPool); n > 0 {
		b := o.bufPool[n-1][:0]
		o.bufPool[n-1] = nil
		o.bufPool = o.bufPool[:n-1]
		return b
	}
	return nil
}

// putBuf returns a stack-entry buffer to the pool. The cap bounds the
// retained footprint to roughly one burst's snapshot stack.
func (o *optShard) putBuf(b []byte) {
	if cap(b) == 0 || len(o.bufPool) >= 16 {
		return
	}
	o.bufPool = append(o.bufPool, b)
}

func (c *optCoord) clearStack(sh *shard) {
	o := sh.opt
	for i := range o.stack {
		o.putBuf(o.stack[i].data)
		o.stack[i].data = nil
	}
	o.stack = o.stack[:0]
	o.sinceSnap = 0
}

// rollback undoes a shard's speculation past a commit at td: restore
// the newest stack entry strictly below td (the oldest entry, always
// commit-clean, catches the boundary case clock == td), then re-run
// the restored queue up to — but excluding — td. Replay re-executes
// events with their original phase (restored by the core codec) and
// the original queue sequence numbers, so every re-derived rank is
// bit-identical to the first execution.
func (c *optCoord) rollback(sh *shard, td float64) error {
	o := sh.opt
	k := sh.k
	rt0 := c.tk.Now()
	if len(o.stack) == 0 {
		// Legal only for a shard whose clock is exactly td with nothing
		// speculated since: the decider of an earlier commit at the
		// same timestamp. Anything else lost its undo anchor.
		if k.now > td {
			return fmt.Errorf("sim: internal: shard %d at t=%v beyond commit t=%v with no rollback snapshot",
				sh.index, k.now, td)
		}
		return nil
	}
	ti := -1
	for i := len(o.stack) - 1; i >= 0; i-- {
		if o.stack[i].clock < td {
			ti = i
			break
		}
	}
	if ti < 0 {
		// The oldest entry is the burst anchor: everything it captured
		// was committed, so clock == td means "state right after an
		// earlier same-time commit" and is exact, not speculative.
		ti = 0
		if o.stack[0].clock > td {
			return fmt.Errorf("sim: internal: shard %d oldest snapshot at t=%v beyond commit t=%v",
				sh.index, o.stack[0].clock, td)
		}
	}
	data := o.stack[len(o.stack)-1].data
	for i := len(o.stack) - 2; i >= ti; i-- {
		if o.stack[i].isDelta {
			var err error
			if data, err = ApplySnapshotDelta(data, o.stack[i].data); err != nil {
				return fmt.Errorf("sim: rollback snapshot chain (shard %d): %w", sh.index, err)
			}
		} else {
			data = o.stack[i].data
		}
	}
	undone := len(sh.par.evTimes) - o.stack[ti].logLen

	k.q.Reset()
	k.decideQ.Reset()
	k.handoffQ.Reset()
	d := &snapDecoder{data: data}
	for _, cd := range k.codecs {
		if err := cd.load(d); err != nil {
			return fmt.Errorf("sim: rollback restore (shard %d, %s): %w", sh.index, cd.name, err)
		}
	}
	if d.off != len(data) {
		return fmt.Errorf("sim: rollback restore (shard %d): %d trailing bytes", sh.index, len(data)-d.off)
	}
	ent := &o.stack[ti]
	sh.par.evTimes = sh.par.evTimes[:ent.logLen]
	sh.par.evFin = sh.par.evFin[:ent.logLen]
	if o.finMax >= ent.clock {
		// The truncated suffix (all events at or above the snapshot
		// clock) could have held the latest completion; rescan the
		// surviving prefix.
		o.finMax = math.Inf(-1)
		for pos, fin := range sh.par.evFin {
			if fin >= 0 && sh.par.evTimes[pos] > o.finMax {
				o.finMax = sh.par.evTimes[pos]
			}
		}
	}
	sh.rebuildAliasRisk()
	o.stack = o.stack[:ti+1]
	o.stack[ti].data, o.stack[ti].isDelta = data, false
	o.sinceSnap = 0

	// Replay the commit-certain prefix. The fences guarantee no
	// deciding-classified event below td, and nothing here needs
	// snapshot protection: it can never be undone again.
	for {
		ev, ok := k.q.Peek()
		if !ok || ev.Time >= td {
			break
		}
		if k.decides(ev.Kind) || ((sh.aliasRisk > 0 || c.w.aliasLive > 0) && k.isHandoff(ev.Kind)) {
			return fmt.Errorf("sim: internal: deciding event at t=%v below commit t=%v during replay",
				ev.Time, td)
		}
		ev, _ = k.q.Pop()
		if k.isHandoff(ev.Kind) {
			k.handoffQ.Pop()
		}
		k.now = ev.Time
		sh.acct.advanceTo(ev.Time)
		err := k.dispatch(ev)
		fin := int32(-1)
		if ev.Kind == int(sh.place.finish) {
			fin = int32(ev.A)
		}
		k.releaseRef(ev)
		sh.par.evTimes = append(sh.par.evTimes, ev.Time)
		sh.par.evFin = append(sh.par.evFin, fin)
		if fin >= 0 && ev.Time > o.finMax {
			o.finMax = ev.Time
		}
		o.sinceSnap++
		undone--
		if err != nil {
			return fmt.Errorf("sim: t=%v: %w", ev.Time, err)
		}
	}
	if undone > 0 {
		c.wasted += undone
	}
	optRollbacks.Add(1)
	c.rolls++
	c.w.met.rollbacks.Add(1)
	if undone > 0 {
		c.w.met.undone.Add(int64(undone))
	}
	if c.tk != nil {
		wasted := int64(0)
		if undone > 0 {
			wasted = int64(undone)
		}
		c.tk.Span("rollback", rt0,
			obs.Arg{Key: "shard", Val: int64(sh.index)},
			obs.Arg{Key: "undone", Val: wasted})
	}
	return nil
}

// commit executes exactly one event at td on the decider shard under
// global quiescence, after rolling every shard that speculated to or
// past td back below it. The head is usually the deciding event that
// defined td, but can be a same-time local ranked before it. A
// deciding commit increments gseq and stamps it as the phase of every
// event it creates, then delivers its cross-shard sends (see
// deliverOutbox); ties it cannot order are flagged.
func (c *optCoord) commit(td float64, decider int) error {
	w := c.w
	for i, sh := range c.shards {
		if sh.k.now >= td {
			if err := c.rollback(sh, td); err != nil {
				return err
			}
			// Keep the fence caches fresh through the tie scan below:
			// the rollback rebuilt this shard's queues.
			c.refreshFenceCache(i)
		}
	}
	dsh := c.shards[decider]
	ev, ok := dsh.k.q.Peek()
	if !ok || ev.Time != td {
		return fmt.Errorf("sim: internal: shard %d commit head at t=%v, want t=%v",
			decider, ev.Time, td)
	}
	kd := ev.Kind
	deciding := dsh.k.decides(kd) || ((dsh.aliasRisk > 0 || w.aliasLive > 0) && dsh.k.isHandoff(kd))

	// Ambiguous-tie scan: a deciding commit flags any peer holding an
	// event or a fence at exactly td, whose serial order relative to the
	// decision cannot be reconstructed — except the structural start
	// tie with the snapshot chains every shard seeds at the trace start,
	// which the serial engine provably orders after the first
	// submission. A local commit flags only tied fences: same-time
	// locals in different shards commute.
	for qi, sh := range c.shards {
		if qi == decider {
			continue
		}
		// Every call site reaches here with shard qi's fence caches
		// fresh (the quiescent pass or the drain rescan refilled them,
		// and the rollback loop above re-refreshed any shard it undid),
		// so the common no-tie case decides on cached values alone.
		if c.qNext[qi] > td && c.cachedFence(qi) > td {
			continue
		}
		qn, nextKind := inf, 0
		if pe, pok := sh.k.q.Peek(); pok {
			qn, nextKind = pe.Time, pe.Kind
		}
		fence := sh.publishedFence()
		switch {
		case deciding && (qn == td || fence == td):
			structural := td == w.start && kd == c.kSubmit &&
				nextKind == c.kSnapshot && fence > td
			if !structural {
				c.ties = true
			}
		case !deciding && fence == td:
			c.ties = true
		}
	}

	if deciding {
		c.gseq++
	}
	dsh.k.phase = c.gseq
	ev, _ = dsh.k.q.Pop()
	if dsh.k.decides(ev.Kind) {
		dsh.k.decideQ.Pop()
	} else if dsh.k.isHandoff(ev.Kind) {
		dsh.k.handoffQ.Pop()
	}
	dsh.k.now = td
	dsh.acct.advanceTo(td)
	err := dsh.k.dispatch(ev)
	fin := int32(-1)
	if ev.Kind == int(dsh.place.finish) {
		fin = int32(ev.A)
	}
	dsh.k.releaseRef(ev)
	sh := dsh
	sh.par.evTimes = append(sh.par.evTimes, td)
	sh.par.evFin = append(sh.par.evFin, fin)
	if fin >= 0 && td > sh.opt.finMax {
		sh.opt.finMax = td
	}
	if err != nil {
		return fmt.Errorf("sim: t=%v: %w", td, err)
	}

	if deciding {
		if err := c.deliverOutbox(dsh); err != nil {
			return err
		}
		// A committed decision invalidates every retained snapshot: its
		// deliveries are missing from older queue captures and its gseq
		// increment from older phase captures. Clearing all stacks here
		// is what pins GVT to the last commit.
		for _, sh := range c.shards {
			c.clearStack(sh)
		}
		c.adapt()
	} else {
		// A committed local invalidates only its own shard's captures.
		c.clearStack(dsh)
	}
	return nil
}

// deliverOutbox flushes the decider's cross-shard sends: one batched
// delivery per destination, pre-sorted into (Time, G, Idx) firing
// order. Every message's rank is unique, because all cross-shard sends
// originate from globally-serialized deciding events, so the bulk
// insert is deterministic. Every
// other outbox must be empty — speculative events are shard-local and
// never send — and a message there means the engine's safety argument
// is broken, so it is checked, not assumed.
func (c *optCoord) deliverOutbox(src *shard) error {
	for _, sh := range c.shards {
		if sh == src {
			continue
		}
		if sh.par.outboxN != 0 {
			return fmt.Errorf("sim: internal: shard %d buffered a cross-shard send outside a commit", sh.index)
		}
	}
	if src.par.outboxN == 0 {
		// The common case for a deciding commit that stayed local: the
		// drain loop retires long runs of these, so the flush must cost
		// nothing when there is nothing to flush.
		return nil
	}
	src.par.outboxN = 0
	for d := range c.shards {
		msgs := src.par.outbox[d]
		if len(msgs) == 0 {
			continue
		}
		batch := c.batch[:0]
		for _, m := range msgs {
			batch = append(batch, eventq.Delivery{
				Time: m.t, Kind: int(m.kind), A: m.a, B: m.b, G: m.g, Idx: m.idx,
			})
		}
		src.par.outbox[d] = src.par.outbox[d][:0]
		if len(batch) > 1 {
			sort.Slice(batch, func(i, j int) bool {
				if batch[i].Time != batch[j].Time {
					return batch[i].Time < batch[j].Time
				}
				if batch[i].G != batch[j].G {
					return batch[i].G < batch[j].G
				}
				return batch[i].Idx < batch[j].Idx
			})
		}
		c.shards[d].k.deliverBatch(batch)
		c.batch = batch[:0]
	}
	return nil
}

// noteGroupCommit buckets one quiescent drain of n consecutive commits
// into the log2 histogram behind Result.GroupCommitSize.
func (c *optCoord) noteGroupCommit(n int64) {
	b := bits.Len64(uint64(n)) - 1
	for len(c.groupHist) <= b {
		c.groupHist = append(c.groupHist, 0)
	}
	c.groupHist[b]++
}

// adapt retunes the speculation window after a deciding commit: undone
// work means the window outran the decision density, so both the
// window and the snapshot cadence tighten; a run of clean commits
// relaxes them again.
func (c *optCoord) adapt() {
	if c.wasted > 0 {
		c.wasted = 0
		c.clean = 0
		c.window = math.Max(c.window/2, c.delta)
		c.snapEvery = max(c.snapEvery/2, 16)
		return
	}
	if c.clean++; c.clean >= 4 {
		c.clean = 0
		c.window = math.Min(c.window*2, 1024*c.delta)
		c.snapEvery = min(c.snapEvery*2, 512)
	}
}

// runOptimistic is the engine entry point. The structure is: resume
// all shards for one speculative burst; at quiescence either commit
// the earliest possible decision (rolling back overshoot first) or,
// when none is pending, just widen the horizons and burst again. The
// run ends when every job is complete and no pending event could
// still precede the final completion.
func runOptimistic(w *world) (*Result, error) {
	delta := w.plat.MinCrossRTT()
	if delta <= 0 {
		// parallelizable() already demands positive cross-site RTTs;
		// this guards the engine's own invariant independently.
		return nil, fmt.Errorf("sim: optimistic engine requires positive cross-site lookahead, got %v", delta)
	}
	shards := make([]*shard, w.nSites)
	for s := range shards {
		shards[s] = newShard(w, s, []int{s}, true)
	}
	// The per-shard event logs span the whole run (the merge and
	// rollback truncation need them). Go's large-slice append grows by ~1.25x, so growing a year-scale
	// log from nothing churns several times its final size; presizing
	// from the job count removes that churn for the typical event/job
	// ratio and degrades to plain growth beyond it.
	estLog := 8*len(w.specs)/len(shards) + 256
	for _, sh := range shards {
		sh.peers = shards
		if !sameKinds(shards[0].k, sh.k) {
			return nil, fmt.Errorf("sim: shard %d allocated a different event-kind table", sh.index)
		}
		sh.opt = &optShard{
			scopeSeen: make([]bool, len(w.jobs)),
			finMax:    math.Inf(-1),
		}
		sh.par.evTimes = make([]float64, 0, estLog)
		sh.par.evFin = make([]int32, 0, estLog)
	}
	c := &optCoord{
		w:         w,
		shards:    shards,
		kSubmit:   int(shards[0].place.submit),
		kSnapshot: int(shards[0].snaps.snapshot),
		delta:     delta,
		window:    8 * delta,
		snapEvery: 64,
	}
	c.cond = sync.NewCond(&c.mu)
	c.qMuts = make([]uint64, len(shards))
	c.qNext = make([]float64, len(shards))
	c.dFence = make([]float64, len(shards))
	c.hoff = make([]float64, len(shards))
	// Timeline lanes in deterministic order (coordinator first, shards
	// by index); all nil no-ops when tracing is off.
	c.tk = w.cfg.Trace.Track("coordinator")
	for _, sh := range shards {
		sh.trace = w.cfg.Trace.Track(fmt.Sprintf("shard %02d (site %d)", sh.index, sh.sites[0]))
	}
	pm := newProgressMeter(&w.cfg)
	for _, sh := range shards {
		sh.seed()
	}

	inline := runtime.GOMAXPROCS(0) == 1 || len(shards) == 1
	if !inline {
		var wg sync.WaitGroup
		for _, sh := range shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				last := 0
				for {
					c.mu.Lock()
					for !c.stop && c.gen == last {
						c.cond.Wait()
					}
					if c.stop {
						c.mu.Unlock()
						return
					}
					last = c.gen
					capT, safeT := sh.opt.capT, sh.opt.safeT
					c.mu.Unlock()
					c.runBurst(sh, capT, safeT)
					c.mu.Lock()
					if c.running--; c.running == 0 {
						c.cond.Broadcast()
					}
					c.mu.Unlock()
				}
			}(sh)
		}
		defer func() {
			c.mu.Lock()
			c.stop = true
			c.cond.Broadcast()
			c.mu.Unlock()
			wg.Wait()
		}()
	}

	total := len(w.specs)
	ctx := w.cfg.Context
	lastFin := inf
	for {
		// Quiescent: every worker parked, all shard state visible.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: canceled at t=%v: %w", maxNow(shards), err)
			}
		}
		completed := 0
		for _, sh := range shards {
			completed += sh.completed
		}
		minNext := inf
		for i := range shards {
			c.refreshFenceCache(i)
			if c.qNext[i] < minNext {
				minNext = c.qNext[i]
			}
		}
		if pm != nil {
			var evs int64
			for _, sh := range shards {
				evs += int64(len(sh.par.evTimes))
			}
			pm.maybe(maxNow(shards), evs, c.rolls)
		}
		w.met.sampleQueues(shards)
		if completed >= total {
			// Recomputed each pass from the per-shard incremental maxima
			// (rollback truncation keeps them honest): a rollback can
			// undo a speculative completion, so neither the count nor the
			// makespan is monotone until the run actually ends.
			lastFin = math.Inf(-1)
			for _, sh := range shards {
				if sh.opt.finMax > lastFin {
					lastFin = sh.opt.finMax
				}
			}
			if minNext > lastFin {
				// Events at exactly the makespan still execute (and
				// feed the owner/tie accounting in mergeParallel);
				// everything strictly beyond it is inert: the merge
				// counts events and sample ticks only up to the
				// makespan, exactly where the serial loop stops.
				break
			}
		} else {
			if math.IsInf(minNext, 1) {
				return nil, fmt.Errorf("sim: deadlock at t=%v: %d of %d jobs completed and no pending events",
					maxNow(shards), completed, total)
			}
			if minNext > w.cfg.MaxTime {
				return nil, fmt.Errorf("sim: exceeded MaxTime %v with %d of %d jobs incomplete",
					w.cfg.MaxTime, total-completed, total)
			}
		}

		// The earliest event the global order must serialize: pending
		// deciding events (decideFence covers queued decisions and the
		// chain submits that are not queued yet but have exact times),
		// plus promoted handoffs under alias risk. Unlike the published
		// fence there is no minDyn term — a commit target must be an
		// event that exists.
		td := inf
		decider := -1
		for i, sh := range shards {
			cand := c.dFence[i]
			if sh.aliasRisk > 0 || w.aliasLive > 0 {
				if h := c.hoff[i]; h < cand {
					cand = h
				}
			}
			if cand < td {
				td, decider = cand, i
			}
		}
		if decider >= 0 && minNext >= td {
			// Every event below td has executed, so the decision
			// observes exactly the serial prefix. Group-commit drain:
			// instead of paying a full quiescence pass per retired head,
			// keep committing while the next global head is itself a
			// committable decision. The run is sound on committed state
			// throughout: the first commit rolled back every shard at or
			// past td, each successive target satisfies td' >= td with
			// minNext >= td', and no shard runs between commits, so no
			// speculative state at or past a commit target can exist —
			// every later commit in the run observes exactly the serial
			// prefix with no further rollbacks. Each dispatch can still
			// cancel the decision that defined td, spawn a new earlier
			// one, or complete the run; the re-scan below catches all
			// three and ends the run when the head stops being
			// committable.
			gt0 := c.tk.Now()
			run := int64(0)
			for {
				if err := c.commit(td, decider); err != nil {
					return nil, err
				}
				if run++; run&63 == 0 && ctx != nil {
					if err := ctx.Err(); err != nil {
						return nil, fmt.Errorf("sim: canceled at t=%v: %w", maxNow(shards), err)
					}
				}
				completed = 0
				for _, sh := range shards {
					completed += sh.completed
				}
				if completed >= total {
					break
				}
				// Incremental rescan: the commit changed at most a few
				// shards' queues (typically just the decider's); every
				// shard whose mutation counters are unchanged still has
				// exact cached heads.
				for i := range shards {
					if c.shardMuts(i) != c.qMuts[i] {
						c.refreshFenceCache(i)
					}
				}
				minNext = inf
				for i := range shards {
					if c.qNext[i] < minNext {
						minNext = c.qNext[i]
					}
				}
				if minNext > w.cfg.MaxTime {
					// Deadlock and MaxTime overruns report through the
					// quiescent pass, with its exact error wording.
					break
				}
				td, decider = inf, -1
				for i, sh := range shards {
					cand := c.dFence[i]
					if sh.aliasRisk > 0 || w.aliasLive > 0 {
						if h := c.hoff[i]; h < cand {
							cand = h
						}
					}
					if cand < td {
						td, decider = cand, i
					}
				}
				if decider < 0 || minNext < td {
					break
				}
			}
			c.noteGroupCommit(run)
			w.met.drains.Add(1)
			w.met.groupSize.Observe(run)
			if c.tk != nil {
				c.tk.Span("group-commit", gt0, obs.Arg{Key: "commits", Val: run})
			}
			continue
		}

		// No committable decision: burst. safe is the fence-safe bound
		// (nothing below it can ever be rolled back); the adaptive
		// window on top is pure speculation — but never past td. A
		// quiescent commit at td rolls back every shard that reached it,
		// and decisions spawned by the commit land at or after td, so
		// running past the earliest known decision is guaranteed waste.
		// Parking the burst there confines rollbacks to decisions that
		// do not exist yet (armed inside the minDyn window during this
		// very burst).
		// safe is per shard, and deliberately excludes the shard's own
		// fence: a shard parks at its own deciding heads (and its own
		// dynamically-armed decisions enter its own queue ahead of it,
		// in time order), so the only commits that can ever roll shard
		// i back are decisions owned or armed by its peers — each of
		// which is bounded below by that peer's published fence at any
		// earlier instant. min/second-min over the fences gives every
		// shard its exclusive-of-self bound in one pass.
		min1, min2, minIdx := inf, inf, -1
		for i := range shards {
			// The caches are exactly the quiescent pass's refresh above;
			// nothing between there and here touches a queue.
			f := c.cachedFence(i)
			if f < min1 {
				min1, min2, minIdx = f, min1, i
			} else if f < min2 {
				min2 = f
			}
		}
		specW := c.window
		if w.aliasLive > 0 {
			specW = 0
		}
		capAll := min1 + specW
		if td < capAll && !optUncapped {
			capAll = td
		}
		for i, sh := range shards {
			safeT := min1
			if i == minIdx {
				safeT = min2
			}
			capT := capAll
			if inline {
				// On a single P speculation cannot overlap with any
				// other work, so its insurance — the snapshot before
				// every at-risk event — is pure cost. Advance certain
				// work only: nothing below safeT can ever be rolled
				// back, so no shard ever pushes a snapshot. Progress
				// still holds without speculating: if no shard can
				// drain (every queue head at or past its bound), the
				// lowest head qm is blocked by some peer's fence, and a
				// fence at or below qm can only come from that peer's
				// decideFence or promoted handoff (the minDyn terms all
				// sit strictly above qm) — both of which feed td, so
				// td <= minNext and the next pass commits instead of
				// bursting.
				capT = safeT
			}
			sh.opt.safeT = safeT
			sh.opt.capT = capT
			sh.k.phase = c.gseq
		}
		if inline {
			// Single-P (or single-shard) runs gain nothing from the
			// worker pool, and the condvar round-trip per burst would
			// dominate the events themselves. The coordinator owns all
			// shard state at quiescence, so it runs the bursts itself,
			// back to back.
			for _, sh := range shards {
				c.runBurst(sh, sh.opt.capT, sh.opt.safeT)
			}
			if c.aborted {
				return nil, c.err
			}
			continue
		}
		c.mu.Lock()
		c.running = len(shards)
		c.gen++
		c.cond.Broadcast()
		for c.running > 0 {
			c.cond.Wait()
		}
		aborted, err := c.aborted, c.err
		c.mu.Unlock()
		if aborted {
			return nil, err
		}
	}

	// Every sample tick strictly below the makespan is final: no event
	// below it can arrive any more. The merge truncates there exactly
	// like the serial sampler's death.
	for _, sh := range shards {
		sh.acct.advanceTo(lastFin)
	}
	res, err := mergeParallel(w, shards, c.ties)
	if err != nil {
		return nil, err
	}
	res.GroupCommitSize = c.groupHist
	res.Rollbacks = c.rolls
	w.met.events.Add(res.Events)
	return res, nil
}

func maxNow(shards []*shard) float64 {
	var m float64
	for _, sh := range shards {
		if sh.k.now > m {
			m = sh.k.now
		}
	}
	return m
}

// mergeParallel recombines per-shard results into one Result
// bit-identical to the serial engine's: counters sum, series recombine
// tick-by-tick with the serial sampler's float operations, and the
// event count stops at the last completion exactly where the serial
// loop stopped. ties carries the engine's ambiguous-tie flag.
func mergeParallel(w *world, shards []*shard, ties bool) (*Result, error) {
	var res Result
	for _, sh := range shards {
		res.Preemptions += sh.res.Preemptions
		res.Restarts += sh.res.Restarts
		res.Migrations += sh.res.Migrations
		res.WaitMoves += sh.res.WaitMoves
		res.CrossSiteSubmits += sh.res.CrossSiteSubmits
		res.CrossSiteMoves += sh.res.CrossSiteMoves
		res.Kills += sh.res.Kills
		res.Requeues += sh.res.Requeues
	}
	if err := finalizeJobs(w, &res); err != nil {
		return nil, err
	}
	finalizeFaults(w, &res)
	if res.Makespan > w.cfg.MaxTime {
		// The serial loop would have failed at the first event past the
		// cap instead of finishing the run.
		return nil, fmt.Errorf("sim: exceeded MaxTime %v: last completion at t=%v",
			w.cfg.MaxTime, res.Makespan)
	}
	res.ambiguousTies = ties

	// Locate the completion that ended the run: the finish event at the
	// makespan. Events the serial loop would have processed after it
	// (later events of the same shard, by local order) are excluded from
	// the event count; a co-timed completion in another shard is an
	// ambiguous tie.
	owner, ownerPos := -1, -1
	for si, sh := range shards {
		for pos, fin := range sh.par.evFin {
			if fin >= 0 && sh.par.evTimes[pos] == res.Makespan {
				switch {
				case owner == -1:
					owner, ownerPos = si, pos
				case owner == si:
					ownerPos = pos
				default:
					res.ambiguousTies = true
				}
			}
		}
	}
	for si, sh := range shards {
		for pos, t := range sh.par.evTimes {
			switch {
			case t < res.Makespan:
				res.Events++
			case t == res.Makespan:
				if si == owner && pos <= ownerPos {
					res.Events++
				} else if si != owner {
					res.ambiguousTies = true
				}
			}
		}
	}
	res.AliasRetirements = w.aliasRetired
	// Promote the run's execution counters into the metrics registry
	// (no-ops when Config.Metrics is unset).
	w.met.aliasRet.Add(w.aliasRetired)

	if !w.cfg.DisableSampling {
		mergeSeries(w, shards, &res)
	}
	return &res, nil
}

// mergeSeries rebuilds the global (and per-site) time series from the
// shards' raw per-tick counters, reproducing the serial sampler's
// float operations tick for tick: global utilization divides the
// integer sum of per-site busy cores by the platform total, and the
// series stop strictly before the makespan — the serial loop records a
// tick only when a later event pops, and no event follows the final
// completion. shards[s] is site s's shard.
func mergeSeries(w *world, shards []*shard, res *Result) {
	bin := w.cfg.SeriesBin
	util := stats.NewTimeSeries(bin)
	susp := stats.NewTimeSeries(bin)
	wait := stats.NewTimeSeries(bin)
	siteTS := make([]*stats.TimeSeries, w.nSites)
	for s := range siteTS {
		siteTS[s] = stats.NewTimeSeries(bin)
	}
	// Cross-site busy shifts (serialized mutations of a remote site's
	// machines, possible only after a cross-site alias dispatch): the
	// executing shard's raw samples include them in its own scope, while
	// the serial site series attribute them to the machine's site. corr
	// re-attributes tick by tick: +delta to the machine's site, −delta
	// to the executor's. Shifts of different shards carry distinct
	// timestamps (they happen under global serialization; exact ties are
	// measure-zero and flagged elsewhere), so a stable sort by time
	// reproduces the serial application order.
	var shifts []busyShift
	for _, sh := range shards {
		shifts = append(shifts, sh.par.busyShifts...)
	}
	sort.SliceStable(shifts, func(a, b int) bool { return shifts[a].t < shifts[b].t })
	corr := make([]int, w.nSites)
	next := 0

	n := math.MaxInt
	for _, sh := range shards {
		if l := len(sh.acct.rawBusy); l < n {
			n = l
		}
	}
	t := w.start
	for i := 0; i < n && t < res.Makespan; i++ {
		// A tick reads post-event state at its own timestamp, so shifts
		// at exactly t apply to it.
		for next < len(shifts) && shifts[next].t <= t {
			corr[shifts[next].site] += int(shifts[next].delta)
			corr[shifts[next].exec] -= int(shifts[next].delta)
			next++
		}
		busy, suspended, waiting := 0, 0, 0
		for _, sh := range shards {
			busy += int(sh.acct.rawBusy[i])
			suspended += int(sh.acct.rawSusp[i])
			waiting += int(sh.acct.rawWait[i])
		}
		uv := 0.0
		if w.totalCores > 0 {
			uv = float64(busy) / float64(w.totalCores) * 100
		}
		util.Add(t, uv)
		susp.Add(t, float64(suspended))
		wait.Add(t, float64(waiting))
		for s, sh := range shards {
			su := 0.0
			if w.siteCores[s] > 0 {
				su = float64(corr[s]+int(sh.acct.rawBusy[i])) / float64(w.siteCores[s]) * 100
			}
			siteTS[s].Add(t, su)
		}
		t += w.cfg.SampleEvery
	}
	res.Util, res.Suspended, res.Waiting = util, susp, wait
	res.SiteUtil = siteTS
}
