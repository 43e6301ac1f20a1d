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
	"math"
	"math/bits"

	"netbatch/internal/eventq"
	"netbatch/internal/job"
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
// configuration hash. Version 6 moves the job records out of
// "placement" into a last section, "jobs", of fixed-size records, and
// saves only the submitted prefix: the records of jobs whose submit
// event is not yet scheduled are pristine, and buildWorld rebuilds
// them.
const (
	snapshotMagic   = uint32(0x4e425350) // "NBSP"
	snapshotVersion = uint32(6)
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
// property tests cover every built-in. It is the FNV-1a hash of the
// words' snap encoding, fed word by word (see fnvWords) rather than
// through a buffer of the workload's size; a run computes it once (see
// runSerial).
func configHash(w *world) uint64 {
	cfg := &w.cfg
	h := newFNVWords()
	h.F64(cfg.SampleEvery)
	h.F64(cfg.SeriesBin)
	h.F64(cfg.RescheduleOverhead)
	h.F64(cfg.UtilStaleness)
	h.F64(cfg.DecisionDelay)
	h.F64(cfg.MaxTime)
	h.Bool(cfg.DisableSampling)
	h.F64(cfg.Faults.MTBF)
	h.F64(cfg.Faults.MTTR)
	h.F64(cfg.Faults.MaintPeriod)
	h.F64(cfg.Faults.MaintDuration)
	h.F64(cfg.Faults.MaintFraction)
	h.Str(cfg.Faults.Victim)
	h.U64(cfg.Faults.Seed)
	h.Str(cfg.Initial.Name())
	h.Str(cfg.Policy.Name())
	h.F64(cfg.Policy.WaitThreshold())
	if mig, ok := cfg.Policy.(interface{ MigrationOverhead() float64 }); ok {
		h.F64(mig.MigrationOverhead())
	}
	plat := w.plat
	h.Int(plat.NumSites())
	h.Int(plat.NumPools())
	for p := 0; p < plat.NumPools(); p++ {
		h.Int(plat.SiteOf(p))
		h.Int(plat.Pool(p).Cores)
		h.Ints(plat.Pool(p).Machines)
	}
	h.Int(plat.NumMachines())
	for i := 0; i < plat.NumMachines(); i++ {
		m := plat.Machine(i)
		h.Int(m.Pool)
		h.Int(m.Cores)
		h.Int(m.MemMB)
		h.F64(m.Speed)
		h.Str(m.OS)
	}
	for a := 0; a < plat.NumSites(); a++ {
		for b := 0; b < plat.NumSites(); b++ {
			h.F64(plat.RTT(a, b))
		}
	}
	h.Int(len(w.specs))
	for i := range w.specs {
		s := &w.specs[i]
		h.I64(int64(s.ID))
		h.F64(s.Submit)
		h.F64(s.Work)
		h.Int(s.Cores)
		h.Int(s.MemMB)
		h.Str(s.OS)
		h.Int(int(s.Priority))
		h.Ints(s.Candidates)
		h.Int(s.Site)
		h.I64(s.TaskID)
	}
	return uint64(h)
}

// fnvWords is a 64-bit FNV-1a hash fed the bytes a snap.Encoder would
// write for the same calls. A zero byte only multiplies the hash by the
// FNV prime, so the zero high bytes of a small word fold into one
// multiplication by a power of the prime: most workload words are small
// integers, and FNV-1a's one multiplication per byte is its cost.
type fnvWords uint64

const fnvPrime = 1099511628211

// fnvPrimePow[k] is fnvPrime to the k-th power, modulo 2^64.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

func newFNVWords() fnvWords { return 14695981039346656037 }

func (h *fnvWords) U64(v uint64) {
	x := uint64(*h)
	n := (bits.Len64(v) + 7) / 8 // bytes up to the highest non-zero one
	for i := 0; i < n; i++ {
		x = (x ^ v&0xff) * fnvPrime
		v >>= 8
	}
	*h = fnvWords(x * fnvPrimePow[8-n])
}
func (h *fnvWords) I64(v int64)   { h.U64(uint64(v)) }
func (h *fnvWords) Int(v int)     { h.U64(uint64(v)) }
func (h *fnvWords) F64(v float64) { h.U64(math.Float64bits(v)) }
func (h *fnvWords) Bool(v bool) {
	x := uint64(*h)
	if v {
		x ^= 1
	}
	*h = fnvWords(x * fnvPrime)
}
func (h *fnvWords) Str(v string) {
	h.U64(uint64(len(v)))
	x := uint64(*h)
	for i := 0; i < len(v); i++ {
		x = (x ^ uint64(v[i])) * fnvPrime
	}
	*h = fnvWords(x)
}
func (h *fnvWords) Ints(v []int) {
	h.U64(uint64(len(v)))
	for _, x := range v {
		h.Int(x)
	}
}

// ---------------------------------------------------------------------
// Snapshot encode/decode.

// snapshot is a decoded-but-not-yet-applied checkpoint: the verified
// header plus the raw codec sections and job records, applied to a
// freshly built world by restore.
type snapshot struct {
	label      string
	every      float64
	configHash uint64
	kindHash   uint64
	time       float64
	events     int64

	// sections holds the codec sections in stateCodecs order, and jobs
	// the last section's job records: jobRecLen bytes for each job of
	// the submitted prefix.
	sections []snapSection
	jobs     []byte
}

type snapSection struct {
	name string
	data []byte
}

// jobsSection names the last section of a snapshot: the fixed-size
// records of the submitted prefix's jobs (see putJobRecord). Keeping
// them last and fixed-size lets a delta patch them in place.
const jobsSection = "jobs"

// snapParams carries the header inputs of one snapshot. Periodic
// checkpointing caches the two guard hashes here — the configuration
// hash walks the whole workload, so it is computed once per run.
type snapParams struct {
	label    string
	every    float64
	cfgHash  uint64
	kindHash uint64
}

func newSnapParams(w *world, every float64, cfgHash uint64) snapParams {
	return snapParams{
		label:    w.cfg.CheckpointLabel,
		every:    every,
		cfgHash:  cfgHash,
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
// only other state is its pending events. "faults" exists only with
// faults on (see codecs). The jobs section follows them all.
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

// encodeHead appends a snapshot's bytes up to its job records: the
// header, every codec section, and the jobs section's name and length
// word for the submitted prefix's records.
func encodeHead(e *snap.Encoder, w *world, p snapParams, now float64, events int64) {
	e.U64(uint64(snapshotMagic))
	e.U64(uint64(snapshotVersion))
	e.U64(p.cfgHash)
	e.U64(p.kindHash)
	e.F64(p.every)
	e.Str(p.label)
	e.F64(now)
	e.I64(events)

	codecs := w.codecs()
	e.Int(len(codecs) + 1)
	for _, c := range codecs {
		e.Str(c.name)
		// Reserve the section length slot, save in place, then backpatch
		// — avoids a second buffer and its copy per section.
		e.U64(0)
		lenAt := len(e.Buf) - 8
		c.save(w, e)
		binary.LittleEndian.PutUint64(e.Buf[lenAt:], uint64(len(e.Buf)-lenAt-8))
	}
	e.Str(jobsSection)
	e.Int(w.nextSubmit * jobRecLen)
}

// Integrity trailer: every snapshot ends in the CRC-32C of everything
// before it, so a flipped bit anywhere in a stored snapshot is rejected
// instead of silently restoring a perturbed state. Castagnoli is
// hardware-accelerated; a byte-at-a-time hash here would cost more than
// the entire state walk. (Stored widened to 8 bytes for alignment.)
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// decodeSnapshot verifies an encoded snapshot's trailer and parses it.
func decodeSnapshot(data []byte) (*snapshot, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrSnapshotMismatch)
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if uint64(crc32.Checksum(body, castagnoli)) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (snapshot corrupted)", ErrSnapshotMismatch)
	}
	return parseSnapshot(body)
}

// parseSnapshot structurally validates a snapshot body (the bytes
// before its trailer) and splits it into header, codec sections and job
// records.
func parseSnapshot(body []byte) (*snapshot, error) {
	d := snap.NewDecoder(body)
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
	nSections := d.Count(len(stateCodecs)+1, 16)
	for c := 0; c < nSections; c++ {
		sn.sections = append(sn.sections, snapSection{name: d.Str(), data: d.Bytes()})
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotMismatch, d.Len())
	}
	last := len(sn.sections) - 1
	if last < 0 || sn.sections[last].name != jobsSection || len(sn.sections[last].data)%jobRecLen != 0 {
		return nil, fmt.Errorf("%w: snapshot does not end in a section of %d-byte job records",
			ErrSnapshotMismatch, jobRecLen)
	}
	sn.sections, sn.jobs = sn.sections[:last], sn.sections[last].data
	return sn, nil
}

// restore checks a decoded snapshot against the run — the same
// configuration (whose hash the caller computed) and kind table — and
// applies it to a freshly built, unseeded world.
func (w *world) restore(sn *snapshot, cfgHash uint64) error {
	if sn.configHash != cfgHash {
		return fmt.Errorf("%w: configuration hash %#x, snapshot has %#x (different platform, workload, policy or knobs)",
			ErrSnapshotMismatch, cfgHash, sn.configHash)
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
	if err := w.loadJobs(sn.jobs); err != nil {
		return fmt.Errorf("sim: restore %s state: %w", jobsSection, err)
	}
	if err := w.checkPinnedEvents(); err != nil {
		return err
	}
	if err := w.checkRestoredTime(sn); err != nil {
		return err
	}
	w.rebuildAliased()
	w.resumed = true
	return nil
}

// checkPinnedEvents rejects pending submit and finish events that no
// run leaves behind: each is a pure function of the restored job
// records, and a resumed run that followed a moved one would simulate
// until an engine check failed or MaxTime passed. Submissions chain
// one at a time in spec order, so a submit is pending exactly when the
// job before the cursor is still created and not on its way to a
// remote pool, and it is that job's, at its spec's time. Every running
// job, and only those, has one pending finish, at finishTime.
func (w *world) checkPinnedEvents() error {
	last := w.nextSubmit - 1
	submits, finishes, arriving := 0, 0, false
	for _, ev := range w.q.Export() {
		switch kind(ev.Kind) {
		case kSubmit:
			submits++
			if int(ev.A) != last || ev.Time != w.specs[last].Submit {
				return fmt.Errorf("%w: pending submit of job index %d at t=%v, not the cursor's job index %d at its submit time",
					ErrSnapshotMismatch, ev.A, ev.Time, last)
			}
		case kFinish:
			rt := &w.jobs[ev.A]
			if rt.State() != job.StateRunning || ev.Time != finishTime(rt) {
				return fmt.Errorf("%w: pending finish of %v job %d at t=%v",
					ErrSnapshotMismatch, rt.State(), rt.spec.ID, ev.Time)
			}
			finishes++
		case kArrive:
			arriving = arriving || int(ev.A) == last
		}
	}
	want := 0
	if last >= 0 && w.jobs[last].State() == job.StateCreated && !arriving {
		want = 1
	}
	if submits != want {
		return fmt.Errorf("%w: %d pending submits, want %d", ErrSnapshotMismatch, submits, want)
	}
	// Each finish is a running job's, and restoreQueue gave each of them
	// the handle of its last one: one handle per running job and no
	// more finishes than running jobs leave one finish each.
	running := 0
	for i := range w.nextSubmit {
		if rt := &w.jobs[i]; rt.State() == job.StateRunning {
			running++
			if rt.finish == (eventq.Handle{}) {
				return fmt.Errorf("%w: running job %d has no pending finish", ErrSnapshotMismatch, rt.spec.ID)
			}
		}
	}
	if finishes != running {
		return fmt.Errorf("%w: %d pending finishes for %d running jobs", ErrSnapshotMismatch, finishes, running)
	}
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
//
// A capture costs what changed since the previous one: the
// checkpointer keeps the encoded job records of its last capture
// (recs) and re-encodes only the records of jobs submitted since or
// whose StateSince is at or after that capture's time (since). Every
// change to a job record happens in a transition at the then-current
// time, so every other record still holds its bytes. A completed job's
// record never changes again, so the records up to the first job not
// yet completed are settled: captures neither scan them nor re-read
// them for the checksum.
type checkpointer struct {
	w      *world
	params snapParams
	every  float64
	next   float64

	// head is the scratch the bytes before the job records are encoded
	// into, reused across captures. recs holds the records of the last
	// capture's submitted prefix, captured at time since; patch lists
	// the records the last capture re-encoded, in ascending order. The
	// first settled records are those of completed jobs, and settledCRC
	// is their CRC-32C.
	head       []byte
	recs       []byte
	since      float64
	patch      []int
	settled    int
	settledCRC uint32

	// Delta emission (Config.CheckpointKeyframe > 1): lastCRC, lastTime
	// and lastEvents are the body CRC (the trailer word) and the
	// boundary of the previously emitted snapshot — the delta base;
	// emitted counts snapshots since the run (or resume) started, so
	// emitted%keyframe == 0 forces a full keyframe. The first snapshot
	// after a resume is always full, so no delta ever chains across
	// runs.
	keyframe   int
	emitted    int
	lastCRC    uint32
	lastTime   float64
	lastEvents int64

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

// newCheckpointer returns nil when checkpointing is disabled. cfgHash
// is the run's configuration hash.
func newCheckpointer(w *world, resumed *snapshot, cfgHash uint64) *checkpointer {
	if w.cfg.CheckpointEvery <= 0 {
		return nil
	}
	ck := &checkpointer{
		w:        w,
		params:   newSnapParams(w, w.cfg.CheckpointEvery, cfgHash),
		every:    w.cfg.CheckpointEvery,
		next:     w.start + w.cfg.CheckpointEvery,
		keyframe: w.cfg.CheckpointKeyframe,
	}
	if resumed != nil {
		for ck.next <= resumed.time {
			ck.next += ck.every
		}
	}
	return ck
}

// due reports whether the boundary at time t has crossed the next mark.
func (ck *checkpointer) due(t float64) bool { return ck != nil && t >= ck.next }

// capture brings head and recs up to the boundary at time t and returns
// the CRC-32C of the snapshot body they make. The record image is
// allocated once, for every job of the run.
func (ck *checkpointer) capture(t float64, events int64) uint32 {
	w := ck.w
	if ck.recs == nil {
		ck.recs = make([]byte, 0, len(w.jobs)*jobRecLen)
	}
	ck.patch = ck.patch[:0]
	old := len(ck.recs) / jobRecLen
	for i := ck.settled; i < old; i++ {
		if w.jobs[i].StateSince() >= ck.since {
			w.putJobRecord(ck.recs[i*jobRecLen:], i)
			ck.patch = append(ck.patch, i)
		}
	}
	ck.recs = ck.recs[:w.nextSubmit*jobRecLen]
	for i := old; i < w.nextSubmit; i++ {
		w.putJobRecord(ck.recs[i*jobRecLen:], i)
		ck.patch = append(ck.patch, i)
	}
	ck.since = t
	from := ck.settled
	for ck.settled < w.nextSubmit && w.jobs[ck.settled].done {
		ck.settled++
	}
	ck.settledCRC = crc32.Update(ck.settledCRC, castagnoli, ck.recs[from*jobRecLen:ck.settled*jobRecLen])
	e := snap.Encoder{Buf: ck.head[:0]}
	encodeHead(&e, w, ck.params, t, events)
	ck.head = e.Buf
	crc := crcCombine(crc32.Checksum(ck.head, castagnoli), ck.settledCRC, ck.settled*jobRecLen)
	return crc32.Update(crc, castagnoli, ck.recs[ck.settled*jobRecLen:])
}

// crcCombine returns the CRC-32C of a‖b from the CRC-32C of a, that of
// b and b's length, without reading either (zlib's crc32_combine): it
// advances crcA over n zero bytes, applying the CRC register's shift
// operator for one zero byte squared once per bit of n, and folds in
// crcB.
func crcCombine(crcA, crcB uint32, n int) uint32 {
	// The operator for one zero bit: the polynomial in the first column,
	// a shift in the others; squared three times, for one zero byte.
	var op [32]uint32
	op[0] = crc32.Castagnoli
	for i := 1; i < 32; i++ {
		op[i] = 1 << (i - 1)
	}
	for range 3 {
		op = gf2Square(op)
	}
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			crcA = gf2Times(&op, crcA)
		}
		op = gf2Square(op)
	}
	return crcA ^ crcB
}

// gf2Times applies a 32×32 matrix over GF(2), stored by column, to v.
func gf2Times(m *[32]uint32, v uint32) uint32 {
	var sum uint32
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			sum ^= m[i]
		}
	}
	return sum
}

// gf2Square returns m·m.
func gf2Square(m [32]uint32) (sq [32]uint32) {
	for i := range m {
		sq[i] = gf2Times(&m, m[i])
	}
	return sq
}

// full frames the last capture as a full snapshot in a buffer of its
// exact size; body is the CRC capture returned.
func (ck *checkpointer) full(body uint32) []byte {
	out := make([]byte, len(ck.head)+len(ck.recs)+8)
	copy(out, ck.head)
	copy(out[len(ck.head):], ck.recs)
	binary.LittleEndian.PutUint64(out[len(out)-8:], uint64(body))
	return out
}

// take snapshots the run at boundary time t and hands the encoding to
// the sink, then advances past every mark the boundary crossed. In
// keyframe mode the non-keyframe snapshots are emitted as deltas
// against the previous emission, unless the delta fails to shrink (a
// delta at least as large as its full encoding carries no value and
// would still force chain reconstruction on resume). Both sizes are
// known before either is encoded.
func (ck *checkpointer) take(t float64, events int64) error {
	t0 := ck.trace.Now()
	body := ck.capture(t, events)
	for ck.next <= t {
		ck.next += ck.every
	}
	var out []byte
	isDelta := ck.keyframe > 1 && ck.emitted%ck.keyframe != 0 &&
		deltaLen(len(ck.head), len(ck.patch)) < len(ck.head)+len(ck.recs)+8
	if isDelta {
		out = encodeSnapshotDelta(deltaMeta{BaseTime: ck.lastTime, BaseEvents: ck.lastEvents, Time: t, Events: events},
			ck.lastCRC, body, ck.head, ck.recs, ck.patch)
	} else {
		out = ck.full(body)
	}
	ck.lastCRC, ck.lastTime, ck.lastEvents = body, t, events
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
