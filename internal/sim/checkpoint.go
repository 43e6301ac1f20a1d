package sim

// Checkpoint/restore: serialize the complete state of a running
// simulation at a clean boundary and resume it later, bit-identically.
//
// The state contract is the stateCodecs table: one named section per
// mechanism, each a pair of world methods that dump and restore its
// portion of the world. Checkpointing and resume run on the serial
// loop, and a snapshot is taken only between two of its events,
// where every piece of state is explicit. The invariant that makes
// this safe, asserted by the checkpoint property tests, is
// bit-identity: a run resumed from any checkpoint produces exactly the
// jobs, series, counters and event counts of a never-interrupted run.
//
// The encoding is deterministic — fixed-width little-endian primitives,
// floats as IEEE-754 bits, sections in table order, sorted map keys —
// so equal states always encode to equal bytes, which is what lets two
// runs' checkpoint directories be compared with `diff -r`. Three guards
// protect against mismatched resumes: a format version, a hash of the
// event-kind table (the numbers the pending events reference), and a
// hash of the full run configuration (platform topology, workload
// specs, scheduler/policy identity, simulation knobs). Any mismatch —
// or a truncated or corrupted snapshot — fails with ErrSnapshotMismatch,
// and so does a CRC-valid snapshot whose words the run cannot continue
// from: an index outside the platform or the workload, a job state
// that does not exist, or a clock or sample cursor outside the run.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"netbatch/internal/eventq"
	"netbatch/internal/obs"
	"netbatch/internal/snap"
)

// snapshotMagic and snapshotVersion head every encoded snapshot.
// Version 2 dropped the persisted cross-alias flag: jobRT.aliased is a
// pure function of restored job/machine state and is rederived on
// restore. Version 3 writes every pending event as (time, kind, seq,
// a, b), keeps open maintenance blocks in the faults section, and drops
// the words only the retired partitioned engines set: the header's
// mode string and shard count, the core phase word, each event's two
// other rank words, and accounting's raw flag. Version 4 saves the
// federated scheduler's state as one round-robin's rotations instead of
// per-site blobs, drops the empty "resched" section, and drops the
// conservation-check flag from the configuration hash. Version 5 saves
// the scheduler and policy as the binary "scheduler" and "policy"
// sections instead of two JSON blobs in the header, and drops the
// suspend-holds-memory and queue-beats-resume flags from the
// configuration hash.
const (
	snapshotMagic   = uint32(0x4e425350) // "NBSP"
	snapshotVersion = uint32(5)
)

// ErrSnapshotMismatch wraps every resume failure caused by the snapshot
// itself: version skew, a different configuration or kind table,
// truncation, corruption, or state the run cannot continue from.
// Callers can match it to fall back to a fresh run.
var ErrSnapshotMismatch = snap.ErrMismatch

// Checkpoint is one snapshot emitted through Config.CheckpointSink.
type Checkpoint struct {
	// Time is the simulated minute of the state boundary the snapshot
	// captures: the clock after the event that crossed the checkpoint
	// mark.
	Time float64
	// Events is the number of events processed before the boundary.
	Events int64
	// Data is the encoded snapshot; pass it to Config.ResumeFrom.
	// With Delta set it is a delta against the previously emitted
	// snapshot instead — reconstruct with ApplySnapshotDelta before
	// resuming (see Config.CheckpointKeyframe).
	Data []byte
	// Delta marks Data as delta-encoded.
	Delta bool
}

// Stateful is the state contract for user-supplied schedulers and
// policies: implementations with internal mutable state (round-robin
// rotations, RNG streams) save it into the snapshot's "scheduler" or
// "policy" section with the same encoder as every other section, and
// load it back on resume. All stateful built-ins (sched.RoundRobin,
// sched.Federated, sched.RandomInitial, core.ResSusRand,
// core.ResSusWaitRand) implement it; a stateless component's section is
// empty. A custom component that mutates state without implementing
// Stateful breaks the resume bit-identity contract silently — implement
// it.
type Stateful interface {
	// SaveState appends the component's mutable state. It must not
	// perturb the state, and equal states must save equal bytes.
	SaveState(e *snap.Encoder)
	// LoadState restores state SaveState saved, rejecting input the
	// component cannot continue from. Every error fails the resume
	// with ErrSnapshotMismatch.
	LoadState(d *snap.Decoder) error
}

// ---------------------------------------------------------------------
// Guard hashes.

// kindTableHash fingerprints the run's event-kind table: pending
// events in a snapshot reference kinds by number, so a resume is only
// meaningful against the identical table. It hashes the names of the
// kinds the run can hold, in number order.
func kindTableHash(w *world) uint64 {
	h := fnv.New64a()
	for _, name := range kindNames[1:w.numKinds()] {
		fmt.Fprintf(h, "%s;", name)
	}
	return h.Sum64()
}

// configHash fingerprints everything that determines a run's behavior:
// the simulation knobs, the fault regime, scheduler and policy
// identity, the platform topology, and the full workload. It
// deliberately excludes checkpoint cadence, context and observability.
// Opaque scheduler/policy internals beyond Name and thresholds cannot
// be hashed; their snapshot sections still restore them, and the
// property tests cover every built-in.
func configHash(w *world) uint64 {
	cfg := &w.cfg
	var e snap.Encoder
	e.F64(cfg.SampleEvery)
	e.F64(cfg.SeriesBin)
	e.F64(cfg.RescheduleOverhead)
	e.F64(cfg.UtilStaleness)
	e.F64(cfg.DecisionDelay)
	e.F64(cfg.MaxTime)
	e.Bool(cfg.DisableSampling)
	e.F64(cfg.Faults.MTBF)
	e.F64(cfg.Faults.MTTR)
	e.F64(cfg.Faults.MaintPeriod)
	e.F64(cfg.Faults.MaintDuration)
	e.F64(cfg.Faults.MaintFraction)
	e.Str(cfg.Faults.Victim)
	e.U64(cfg.Faults.Seed)
	e.Str(cfg.Initial.Name())
	e.Str(cfg.Policy.Name())
	e.F64(cfg.Policy.WaitThreshold())
	if mig, ok := cfg.Policy.(interface{ MigrationOverhead() float64 }); ok {
		e.F64(mig.MigrationOverhead())
	}
	plat := w.plat
	e.Int(plat.NumSites())
	e.Int(plat.NumPools())
	for p := 0; p < plat.NumPools(); p++ {
		e.Int(plat.SiteOf(p))
		e.Int(plat.Pool(p).Cores)
		e.Ints(plat.Pool(p).Machines)
	}
	e.Int(plat.NumMachines())
	for i := 0; i < plat.NumMachines(); i++ {
		m := plat.Machine(i)
		e.Int(m.Pool)
		e.Int(m.Cores)
		e.Int(m.MemMB)
		e.F64(m.Speed)
		e.Str(m.OS)
	}
	for a := 0; a < plat.NumSites(); a++ {
		for b := 0; b < plat.NumSites(); b++ {
			e.F64(plat.RTT(a, b))
		}
	}
	e.Int(len(w.specs))
	for i := range w.specs {
		s := &w.specs[i]
		e.I64(int64(s.ID))
		e.F64(s.Submit)
		e.F64(s.Work)
		e.Int(s.Cores)
		e.Int(s.MemMB)
		e.Str(s.OS)
		e.Int(int(s.Priority))
		e.Ints(s.Candidates)
		e.Int(s.Site)
		e.I64(s.TaskID)
	}
	h := fnv.New64a()
	h.Write(e.Buf)
	return h.Sum64()
}

// ---------------------------------------------------------------------
// Snapshot encode/decode.

// snapshot is a decoded-but-not-yet-applied checkpoint: the verified
// header plus the raw codec sections, applied to a freshly built world
// by restore.
type snapshot struct {
	label      string
	every      float64
	configHash uint64
	kindHash   uint64
	time       float64
	events     int64

	// sections holds the codec sections in stateCodecs order.
	sections []snapSection
}

type snapSection struct {
	name string
	data []byte
}

// snapParams carries the header inputs of one snapshot. Periodic
// checkpointing caches the two guard hashes and a buffer size hint
// here — recomputing the configuration hash walks the whole workload,
// which at a one-simulated-day cadence would dominate snapshot cost.
// The checkpointer sets the hint from the sizes it has seen (see
// checkpointer.take), so from a run's third capture on the encoding is
// not copied into a regrown buffer.
type snapParams struct {
	label    string
	every    float64
	cfgHash  uint64
	kindHash uint64
	sizeHint int
}

func newSnapParams(w *world, every float64) snapParams {
	return snapParams{
		label:    w.cfg.CheckpointLabel,
		every:    every,
		cfgHash:  configHash(w),
		kindHash: kindTableHash(w),
	}
}

// stateCodec is one snapshot section: the name it is saved under and
// the world methods that save and load it.
type stateCodec struct {
	name string
	save func(*world, *snap.Encoder)
	load func(*world, *snap.Decoder) error
}

// stateCodecs lists the snapshot sections in encoding order, which is
// part of the snapshot format: a restore pairs saved sections with
// codecs by position and checks their names. "scheduler" and "policy"
// hold the Stateful state of Config.Initial and Config.Policy (empty
// for a stateless one); rescheduling has no section of its own, as its
// only other state is its pending events. "faults" comes last and
// exists only with faults on (see codecs).
var stateCodecs = [...]stateCodec{
	{"scheduler", (*world).saveScheduler, (*world).loadScheduler},
	{"policy", (*world).savePolicy, (*world).loadPolicy},
	{"core", (*world).saveCore, (*world).loadCore},
	{"accounting", (*world).saveAccounting, (*world).loadAccounting},
	{"placement", (*world).savePlacement, (*world).loadPlacement},
	{"views", (*world).saveViews, (*world).loadViews},
	{"faults", (*world).saveFaults, (*world).loadFaults},
}

// codecs returns the run's snapshot sections.
func (w *world) codecs() []stateCodec {
	if w.faults == nil {
		return stateCodecs[:len(stateCodecs)-1]
	}
	return stateCodecs[:]
}

// saveScheduler, savePolicy and their loads are the sections of the
// Stateful scheduler and policy; a stateless one saves nothing, so a
// saved state it is handed fails the trailing-bytes check.
func (w *world) saveScheduler(e *snap.Encoder)       { saveStateful(w.cfg.Initial, e) }
func (w *world) loadScheduler(d *snap.Decoder) error { return loadStateful(w.cfg.Initial, d) }
func (w *world) savePolicy(e *snap.Encoder)          { saveStateful(w.cfg.Policy, e) }
func (w *world) loadPolicy(d *snap.Decoder) error    { return loadStateful(w.cfg.Policy, d) }

func saveStateful(c any, e *snap.Encoder) {
	if s, ok := c.(Stateful); ok {
		s.SaveState(e)
	}
}

func loadStateful(c any, d *snap.Decoder) error {
	if s, ok := c.(Stateful); ok {
		return s.LoadState(d)
	}
	return nil
}

// takeSnapshot serializes the complete state of a run between two
// events.
func takeSnapshot(w *world, p snapParams, now float64, events int64) []byte {
	e := snap.Encoder{Buf: make([]byte, 0, p.sizeHint+4096)}
	e.U64(uint64(snapshotMagic))
	e.U64(uint64(snapshotVersion))
	e.U64(p.cfgHash)
	e.U64(p.kindHash)
	e.F64(p.every)
	e.Str(p.label)
	e.F64(now)
	e.I64(events)

	codecs := w.codecs()
	e.Int(len(codecs))
	for _, c := range codecs {
		e.Str(c.name)
		// Reserve the section length slot, save in place, then backpatch
		// — avoids a second buffer and its copy per section.
		e.U64(0)
		lenAt := len(e.Buf) - 8
		c.save(w, &e)
		binary.LittleEndian.PutUint64(e.Buf[lenAt:], uint64(len(e.Buf)-lenAt-8))
	}
	// Integrity trailer: a CRC-32C checksum of everything above, so a
	// flipped bit anywhere in a stored snapshot is rejected instead of
	// silently restoring a perturbed state. Castagnoli is hardware-
	// accelerated; a byte-at-a-time hash here would cost more than the
	// entire state walk. (Stored widened to 8 bytes for alignment.)
	e.U64(uint64(crc32.Checksum(e.Buf, castagnoli)))
	return e.Buf
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcFromTrailer is the CRC-32C of a whole snapshot takeSnapshot
// encoded. The trailer already holds the CRC of everything before it,
// so extending that over the trailer's own 8 bytes avoids re-reading
// the body.
func crcFromTrailer(data []byte) uint32 {
	tr := data[len(data)-8:]
	return crc32.Update(uint32(binary.LittleEndian.Uint64(tr)), castagnoli, tr)
}

// decodeSnapshot parses and structurally validates an encoded snapshot.
func decodeSnapshot(data []byte) (*snapshot, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrSnapshotMismatch)
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if uint64(crc32.Checksum(body, castagnoli)) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (snapshot corrupted)", ErrSnapshotMismatch)
	}
	data = body
	d := snap.NewDecoder(data)
	if magic := d.U64(); d.Err() == nil && uint32(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrSnapshotMismatch, magic)
	}
	sn := &snapshot{}
	if version := d.U64(); d.Err() == nil && uint32(version) != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot format version %d, this build reads %d",
			ErrSnapshotMismatch, version, snapshotVersion)
	}
	sn.configHash = d.U64()
	sn.kindHash = d.U64()
	sn.every = d.F64()
	sn.label = d.Str()
	sn.time = d.F64()
	sn.events = d.I64()
	// A section is at least its name's and its data's length words.
	nCodecs := d.Count(len(stateCodecs), 16)
	for c := 0; c < nCodecs; c++ {
		sn.sections = append(sn.sections, snapSection{name: d.Str(), data: d.Bytes()})
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotMismatch, d.Len())
	}
	return sn, nil
}

// restore checks a decoded snapshot against the run — the same
// configuration and kind table — and applies it to a freshly built,
// unseeded world.
func (w *world) restore(sn *snapshot) error {
	if h := configHash(w); sn.configHash != h {
		return fmt.Errorf("%w: configuration hash %#x, snapshot has %#x (different platform, workload, policy or knobs)",
			ErrSnapshotMismatch, h, sn.configHash)
	}
	if h := kindTableHash(w); sn.kindHash != h {
		return fmt.Errorf("%w: event-kind table hash %#x, snapshot has %#x",
			ErrSnapshotMismatch, h, sn.kindHash)
	}
	secs, codecs := sn.sections, w.codecs()
	if len(secs) != len(codecs) {
		return fmt.Errorf("%w: run has %d state codecs, snapshot has %d",
			ErrSnapshotMismatch, len(codecs), len(secs))
	}
	for ci, codec := range codecs {
		if secs[ci].name != codec.name {
			return fmt.Errorf("%w: codec %d is %q, snapshot has %q",
				ErrSnapshotMismatch, ci, codec.name, secs[ci].name)
		}
		d := snap.NewDecoder(secs[ci].data)
		err := codec.load(w, d)
		if err == nil {
			err = d.Err()
		}
		if err == nil && d.Len() != 0 {
			err = fmt.Errorf("%d trailing bytes", d.Len())
		}
		if err != nil {
			if !errors.Is(err, ErrSnapshotMismatch) {
				err = fmt.Errorf("%w: %w", ErrSnapshotMismatch, err)
			}
			return fmt.Errorf("sim: restore %s state: %w", codec.name, err)
		}
	}
	if err := w.checkRestoredTime(sn); err != nil {
		return err
	}
	w.rebuildAliased()
	return nil
}

// checkRestoredTime rejects time words the loop cannot continue from.
// The header must repeat the core section's clock and event count; the
// clock must lie in [first submission, MaxTime] (so it is finite); and
// with sampling on, the next sample tick must lie in
// [now, now+SampleEvery], where the loop leaves it after every event.
// A clock or cursor far outside would stall the checkpoint cadence or
// the tick loop, whose steps then no longer change them.
func (w *world) checkRestoredTime(sn *snapshot) error {
	switch {
	case sn.time != w.now || sn.events != w.events:
		return fmt.Errorf("%w: header boundary (t=%v, %d events) differs from the core section's (t=%v, %d events)",
			ErrSnapshotMismatch, sn.time, sn.events, w.now, w.events)
	case !(w.now >= w.start && w.now <= w.cfg.MaxTime):
		return fmt.Errorf("%w: clock %v outside the run's [%v, %v]",
			ErrSnapshotMismatch, w.now, w.start, w.cfg.MaxTime)
	case w.acct.on && !(w.acct.next >= w.now && w.acct.next <= w.now+w.cfg.SampleEvery):
		return fmt.Errorf("%w: next sample tick %v outside [%v, %v + %v]",
			ErrSnapshotMismatch, w.acct.next, w.now, w.now, w.cfg.SampleEvery)
	}
	return nil
}

// ---------------------------------------------------------------------
// The checkpointer: the serial loop's cadence bookkeeping.

// checkpointer drives periodic snapshots onto Config.CheckpointSink.
// Marks sit on a grid anchored at the run's first submission with step
// CheckpointEvery; a snapshot is taken at the first clean boundary at
// or past each mark, and a resumed run skips the marks its snapshot
// already passed — so straight and resumed runs emit checkpoints at
// identical boundaries.
type checkpointer struct {
	w      *world
	params snapParams
	every  float64
	next   float64

	// lastSize is the length of the previous capture (of the resumed
	// snapshot before the first), 0 when there is none.
	lastSize int

	// Delta emission (Config.CheckpointKeyframe > 1): lastFull holds
	// the full encoding of the previously emitted snapshot — the diff
	// base — and lastCRC/lastTime/lastEvents its checksum and boundary;
	// emitted counts snapshots since the run (or resume) started, so
	// emitted%keyframe == 0 forces a full keyframe. The first snapshot
	// after a resume is always full (lastFull nil), so no delta ever
	// chains across runs. idx is the delta encoder's block index,
	// reused across captures.
	keyframe   int
	emitted    int
	lastFull   []byte
	lastCRC    uint32
	lastTime   float64
	lastEvents int64
	idx        deltaIndex

	// Observability (see observe.go): capture counters/bytes and a
	// wall-clock span per take on the serial timeline track. Both
	// nil-safe; set by the serial loop via observe.
	met   *simMetrics
	trace *obs.Track
}

// observe attaches the run's metric handles and the serial timeline
// track to the checkpointer. Nil-safe on a nil checkpointer
// (checkpointing disabled).
func (ck *checkpointer) observe(met *simMetrics, tk *obs.Track) {
	if ck == nil {
		return
	}
	ck.met = met
	ck.trace = tk
}

// newCheckpointer returns nil when checkpointing is disabled.
func newCheckpointer(w *world, resumed *snapshot) *checkpointer {
	if w.cfg.CheckpointEvery <= 0 {
		return nil
	}
	ck := &checkpointer{
		w:        w,
		params:   newSnapParams(w, w.cfg.CheckpointEvery),
		every:    w.cfg.CheckpointEvery,
		next:     w.start + w.cfg.CheckpointEvery,
		keyframe: w.cfg.CheckpointKeyframe,
	}
	if resumed != nil {
		for ck.next <= resumed.time {
			ck.next += ck.every
		}
		ck.lastSize = len(w.cfg.ResumeFrom)
		ck.params.sizeHint = ck.lastSize
	}
	return ck
}

// due reports whether the boundary at time t has crossed the next mark.
func (ck *checkpointer) due(t float64) bool { return ck != nil && t >= ck.next }

// take snapshots the run at boundary time t and hands the encoding to
// the sink, then advances past every mark the boundary crossed. In
// keyframe mode the non-keyframe snapshots are emitted as deltas
// against the previous emission, unless the delta fails to shrink (a
// delta at least as large as its full encoding carries no value and
// would still force chain reconstruction on resume).
func (ck *checkpointer) take(t float64, events int64) error {
	t0 := ck.trace.Now()
	data := takeSnapshot(ck.w, ck.params, t, events)
	// Hint the next capture with this size plus twice the growth since
	// the last one (growth between marks varies), so a growing state's
	// buffer is allocated once at its final size and a steady state's
	// gets no headroom.
	grow := 0
	if ck.lastSize > 0 {
		grow = max(len(data)-ck.lastSize, 0)
	}
	ck.lastSize = len(data)
	ck.params.sizeHint = len(data) + 2*grow
	for ck.next <= t {
		ck.next += ck.every
	}
	out, isDelta := data, false
	if ck.keyframe > 1 {
		crc := crcFromTrailer(data)
		if ck.lastFull != nil && ck.emitted%ck.keyframe != 0 {
			delta := encodeSnapshotDeltaInto(nil, &ck.idx, ck.lastFull, data, ck.lastCRC, crc,
				deltaMeta{BaseTime: ck.lastTime, BaseEvents: ck.lastEvents, Time: t, Events: events})
			if len(delta) < len(data) {
				out, isDelta = delta, true
			}
		}
		ck.lastFull, ck.lastCRC, ck.lastTime, ck.lastEvents = data, crc, t, events
	}
	ck.emitted++
	if ck.met != nil {
		ck.met.ckpts.Add(1)
		ck.met.ckptBytes.Add(int64(len(out)))
	}
	ck.trace.Span("checkpoint", t0, obs.Arg{Key: "bytes", Val: int64(len(out))})
	if err := ck.w.cfg.CheckpointSink(Checkpoint{Time: t, Events: events, Data: out, Delta: isDelta}); err != nil {
		return fmt.Errorf("sim: checkpoint sink at t=%v: %w", t, err)
	}
	return nil
}

// saveCore dumps the loop's own state: the clock and event count, the
// submission-chain cursor, the scope counters, the Result counters, and
// the pending future event list (exact scheduling-order stamps
// included — see saveQueue/restoreQueue).
func (w *world) saveCore(e *snap.Encoder) {
	e.F64(w.now)
	e.I64(w.events)
	e.Int(w.nextSubmit)
	e.Int(w.scopeBusy)
	e.Int(w.scopeSuspended)
	e.Int(w.scopeWaiting)
	e.Int(w.completed)
	e.I64(w.res.Preemptions)
	e.I64(w.res.Restarts)
	e.I64(w.res.Migrations)
	e.I64(w.res.WaitMoves)
	e.I64(w.res.CrossSiteSubmits)
	e.I64(w.res.CrossSiteMoves)
	e.I64(w.res.Kills)
	e.I64(w.res.Requeues)
	w.saveQueue(e)
}

func (w *world) loadCore(d *snap.Decoder) error {
	w.now = d.F64()
	w.events = d.I64()
	w.nextSubmit = d.Int()
	w.scopeBusy = d.Int()
	w.scopeSuspended = d.Int()
	w.scopeWaiting = d.Int()
	w.completed = d.Int()
	w.res.Preemptions = d.I64()
	w.res.Restarts = d.I64()
	w.res.Migrations = d.I64()
	w.res.WaitMoves = d.I64()
	w.res.CrossSiteSubmits = d.I64()
	w.res.CrossSiteMoves = d.I64()
	w.res.Kills = d.I64()
	w.res.Requeues = d.I64()
	if d.Err() == nil && (w.nextSubmit < 0 || w.nextSubmit > len(w.specs)) {
		return fmt.Errorf("%w: submission cursor %d outside the %d jobs", ErrSnapshotMismatch, w.nextSubmit, len(w.specs))
	}
	return w.restoreQueue(d)
}

// restoreQueue reloads a saved pending-event list into the queue and
// rewires the cancellation handles job records hold into it (the
// pending completion of every running job, the pending wait timer of
// every queued one).
func (w *world) restoreQueue(d *snap.Decoder) error {
	w.q.SetSeq(d.U64())
	// An event is five words.
	n := d.Count(-1, 40)
	for i := 0; i < n; i++ {
		sev := eventq.SavedEvent{Time: d.F64(), Kind: d.Int(), Seq: d.U64(), A: d.I64(), B: d.I64()}
		if d.Err() != nil {
			return d.Err()
		}
		if sev.Kind <= 0 || sev.Kind >= w.numKinds() {
			return fmt.Errorf("%w: pending event references unknown kind %d", ErrSnapshotMismatch, sev.Kind)
		}
		// The words passed the CRC but are still input: a time before the
		// clock (or NaN), or a word that indexes past the run's jobs,
		// pools, sites or machines, must fail the resume, not derail the
		// loop or panic a handler.
		if !(sev.Time >= w.now) {
			return fmt.Errorf("%w: pending %s event at t=%v, before the clock %v",
				ErrSnapshotMismatch, kindNames[sev.Kind], sev.Time, w.now)
		}
		if !w.eventInRange(kind(sev.Kind), sev.A, sev.B) {
			return fmt.Errorf("%w: pending %s event (%d, %d) is out of range",
				ErrSnapshotMismatch, kindNames[sev.Kind], sev.A, sev.B)
		}
		h := w.q.Restore(sev)
		switch kind(sev.Kind) {
		case kFinish:
			w.jobs[sev.A].finish = h
		case kWaitTimeout:
			w.jobs[sev.A].waitTO = h
		}
	}
	return nil
}

// saveQueue exports the pending events: the scheduling-order counter,
// then each event as (time, kind, seq, a, b) in firing order.
func (w *world) saveQueue(e *snap.Encoder) {
	e.U64(w.q.Seq())
	events := w.q.Export()
	e.Int(len(events))
	for _, sev := range events {
		e.F64(sev.Time)
		e.Int(sev.Kind)
		e.U64(sev.Seq)
		e.I64(sev.A)
		e.I64(sev.B)
	}
}
