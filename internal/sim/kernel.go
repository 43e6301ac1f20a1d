package sim

import (
	"fmt"

	"netbatch/internal/eventq"
)

// This file is the simulation kernel: a policy-free event loop that
// owns the clock and the future event list and dispatches typed events
// to registered subsystems. Everything that gives events meaning —
// placement and preemption, rescheduling decisions, stale-view
// snapshots, machine faults, series accounting — lives in subsystem
// types (see placement.go, resched.go, snapshot.go, faults.go,
// accounting.go) that register their handlers with the kernel at shard
// construction. The kernel itself never inspects payloads and never
// touches platform state, which is what lets the serial engine
// (serial.go) and the partitioned optimistic engine (optimistic.go)
// drive identical mechanism code.
//
// Event kinds are an open registry, not a closed enum: a subsystem
// allocates each kind it owns with registerKind/registerHandoffKind
// and receives an opaque handle back, so new mechanisms plug in
// without touching the kernel or the engines. Kind numbering follows
// registration order; because every shard registers the same
// subsystem list in the same order, the numbering is identical across
// the partitions of one run (runOptimistic verifies this), which is what
// lets cross-shard deliveries carry kind values between kernels. Kind
// numbers never influence event ordering — the queue orders purely on
// (time, tie rank) — so the numbering is free to change as subsystems
// come and go.

// kind is an opaque handle for a registered event kind. The zero value
// is reserved so an unregistered kind is caught at dispatch.
type kind int

// handlerFunc applies one event's payload to shard state. The payload
// arrives as the event's two inline words (a, b) plus the reference
// slot (ref, nil for the high-volume kinds) — see eventq.Event. Keeping
// payloads out of `any` for the hot kinds is what makes the event loop
// allocation-free.
type handlerFunc func(a, b int64, ref any) error

// kindInfo is one registry entry: the kind's diagnostic name, its
// synchronization class, its handler, and its payload codec (how the
// checkpoint subsystem serializes the kind's pending events).
type kindInfo struct {
	name    string
	handler handlerFunc

	// deciding kinds consult scheduling or rescheduling policy —
	// shared, order-sensitive state — and the optimistic engine
	// serializes them globally in timestamp order.
	deciding bool
	// handoff kinds redistribute machine capacity (completions,
	// arrivals, fault repairs): their wait-queue scans touch only
	// shard-local state unless the shard has live alias risk, in which
	// case the optimistic engine promotes them to deciding (see
	// shard.aliasRisk).
	handoff bool

	// encPayload/decPayload serialize the kind's event payload for
	// checkpointing. registerKind installs the one-word codec (most
	// kinds carry a job, site or machine index in a); kinds with wider
	// payloads override via setPayloadCodec. The encodings are
	// byte-identical to the pre-pooling any-boxed codecs, so snapshot
	// compatibility is preserved.
	encPayload func(e *snapEncoder, a, b int64, ref any)
	decPayload func(d *snapDecoder) (a, b int64, ref any)
	// argOf projects a payload onto the integer argument shown in
	// replay-bisect event records.
	argOf func(a, b int64, ref any) int64
	// release, when set, recycles the kind's reference payloads: the
	// queue's drop hook routes every canceled-and-dropped Ref here, and
	// handlers may call it themselves once a fired payload is consumed.
	release func(ref any)
}

// stateCodec is one entry of the kernel's state registry — the
// checkpoint mirror of the event-kind registry. Each subsystem
// registers a codec that can dump and restore its portion of shard
// state; the snapshot machinery drives the codecs in registration
// order, which is identical across shards and runs for the same reason
// kind numbering is.
type stateCodec struct {
	name string
	save func(e *snapEncoder)
	load func(d *snapDecoder) error
}

// subsystem is a pluggable simulator mechanism: it allocates the event
// kinds it owns from the kernel's registry and wires in its handlers.
type subsystem interface {
	register(k *kernel)
}

// evRef identifies a scheduled event for cancellation. It records the
// owning queues: an alias dispatch may cancel a wait timer that a
// different shard's kernel scheduled, and cancellation must decrement
// that queue's live count, not the canceling shard's. For kinds the
// optimistic engine fence-publishes (deciding kinds, and the handoff
// kinds that alias risk can promote to deciding) it carries a second
// handle into the corresponding shadow queue.
type evRef struct {
	main    eventq.Handle
	mainQ   *eventq.Queue
	shadow  eventq.Handle
	shadowQ *eventq.Queue
}

// kernel is one partition's event loop core: clock, queue, kind
// registry, and processed-event count.
type kernel struct {
	q   *eventq.Queue
	now float64

	// phase is the tie-rank phase stamped on every locally scheduled
	// event: the global decision count when the creating event ran.
	// Always 0 in the serial engine (pure scheduling order); the
	// optimistic engine updates it at each commit so that same-time
	// events reproduce the creation order of a single global queue.
	phase uint64

	// events counts dispatched events (serial engine; the optimistic
	// engine counts through per-shard event logs so it can truncate at
	// the final completion exactly like the serial loop does).
	events int64

	// kinds is the event-kind registry. Index 0 is reserved so the
	// zero kind is caught at dispatch.
	kinds []kindInfo

	// codecs is the state registry: one StateCodec per subsystem, in
	// registration order (see stateCodec).
	codecs []stateCodec

	// decideQ shadows pending deciding events and handoffQ shadows
	// pending capacity-handoff events, so the partition can publish
	// the timestamp of its next decision — and, under alias risk, its
	// next promoted handoff — in O(1). Both are nil in the serial
	// engine, which needs no fences.
	decideQ  *eventq.Queue
	handoffQ *eventq.Queue
}

func newKernel(trackDecides bool) *kernel {
	k := &kernel{q: eventq.New(), kinds: make([]kindInfo, 1)}
	// Route reference payloads of canceled-and-dropped events to their
	// kind's recycler, if it registered one.
	k.q.SetDropHook(func(kd int, ref any) {
		if kd > 0 && kd < len(k.kinds) && k.kinds[kd].release != nil {
			k.kinds[kd].release(ref)
		}
	})
	if trackDecides {
		k.decideQ = eventq.New()
		k.handoffQ = eventq.New()
	}
	return k
}

// registerKind allocates a new event kind owned by the calling
// subsystem and installs its handler. deciding marks kinds whose
// handlers consult shared scheduler/policy state and must execute in
// global timestamp order under the optimistic engine.
func (k *kernel) registerKind(name string, deciding bool, h handlerFunc) kind {
	if h == nil {
		panic(fmt.Sprintf("sim: event kind %q registered with nil handler", name))
	}
	for _, info := range k.kinds[1:] {
		if info.name == name {
			panic(fmt.Sprintf("sim: event kind %q registered twice", name))
		}
	}
	k.kinds = append(k.kinds, kindInfo{
		name: name, deciding: deciding, handler: h,
		encPayload: func(e *snapEncoder, a, _ int64, _ any) { e.I64(a) },
		decPayload: func(d *snapDecoder) (int64, int64, any) { return d.I64(), 0, nil },
		argOf:      func(a, _ int64, _ any) int64 { return a },
	})
	return kind(len(k.kinds) - 1)
}

// setPayloadCodec overrides the payload codec of a kind whose events
// carry more than the single inline word a.
func (k *kernel) setPayloadCodec(kd kind,
	enc func(*snapEncoder, int64, int64, any), dec func(*snapDecoder) (int64, int64, any),
	argOf func(int64, int64, any) int64) {
	k.kinds[kd].encPayload = enc
	k.kinds[kd].decPayload = dec
	k.kinds[kd].argOf = argOf
}

// setPayloadRelease installs a recycler for a kind's reference
// payloads (see kindInfo.release).
func (k *kernel) setPayloadRelease(kd kind, release func(ref any)) {
	k.kinds[kd].release = release
}

// registerState adds a subsystem's state codec to the kernel's state
// registry. Like event kinds, codec order follows registration order
// and must be identical across the shards of one run; the snapshot
// format records the codec names so a mismatched restore is caught.
func (k *kernel) registerState(name string, save func(*snapEncoder), load func(*snapDecoder) error) {
	for _, c := range k.codecs {
		if c.name == name {
			panic(fmt.Sprintf("sim: state codec %q registered twice", name))
		}
	}
	k.codecs = append(k.codecs, stateCodec{name: name, save: save, load: load})
}

// registerHandoffKind allocates a capacity-handoff kind: non-deciding
// in the serial order, but promoted to deciding by the optimistic engine
// while the owning shard has live alias risk, because redistributing
// capacity scans wait queues whose revived slots can reach jobs
// resident at other sites.
func (k *kernel) registerHandoffKind(name string, h handlerFunc) kind {
	id := k.registerKind(name, false, h)
	k.kinds[id].handoff = true
	return id
}

// decides reports whether the kind is statically deciding. The
// argument is an int because it usually arrives from an eventq.Event.
func (k *kernel) decides(kd int) bool { return k.kinds[kd].deciding }

// isHandoff reports whether the kind is a capacity handoff.
func (k *kernel) isHandoff(kd int) bool { return k.kinds[kd].handoff }

// schedule adds an event at time t, shadowing fence-published kinds.
// The payload is the inline word pair (a, b); the rare reference
// payloads go through scheduleRef.
func (k *kernel) schedule(t float64, kd kind, a, b int64) evRef {
	return k.scheduleRef(t, kd, a, b, nil)
}

// scheduleRef is schedule for kinds that carry a reference payload.
func (k *kernel) scheduleRef(t float64, kd kind, a, b int64, payload any) evRef {
	ref := evRef{main: k.q.SchedulePhased(t, int(kd), a, b, payload, k.phase), mainQ: k.q}
	info := &k.kinds[kd]
	switch {
	case k.decideQ != nil && info.deciding:
		ref.shadowQ = k.decideQ
	case k.handoffQ != nil && info.handoff:
		ref.shadowQ = k.handoffQ
	}
	if ref.shadowQ != nil {
		ref.shadow = ref.shadowQ.SchedulePhased(t, int(kd), 0, 0, nil, k.phase)
	}
	return ref
}

// deliverBatch bulk-schedules one commit's pre-sorted cross-partition
// deliveries, each ranked by its creating decision (G) and send index
// (Idx) so same-time ties resolve exactly as the serial engine's
// creation order would. The main queue takes the whole batch in one
// call; fence shadows for handoff kinds are added in the same pass.
func (k *kernel) deliverBatch(batch []eventq.Delivery) {
	k.q.DeliverBatch(batch)
	if k.handoffQ == nil {
		return
	}
	for i := range batch {
		d := &batch[i]
		if k.kinds[d.Kind].handoff {
			k.handoffQ.ScheduleDelivery(d.Time, d.Kind, 0, 0, nil, d.G, d.Idx)
		}
	}
}

// restoreEvent reinstates a checkpointed pending event with its exact
// tie rank, recreating the fence shadow for published kinds. The rank
// is reused for the shadow entry: shadow queues only publish their
// minimum pending time and pop in lockstep with their kinds' events,
// so any ordering consistent with the main queue's is correct — and the
// saved rank is exactly that.
func (k *kernel) restoreEvent(sev eventq.SavedEvent) evRef {
	ref := evRef{main: k.q.Restore(sev), mainQ: k.q}
	info := &k.kinds[sev.Kind]
	switch {
	case k.decideQ != nil && info.deciding:
		ref.shadowQ = k.decideQ
	case k.handoffQ != nil && info.handoff:
		ref.shadowQ = k.handoffQ
	}
	if ref.shadowQ != nil {
		ref.shadow = ref.shadowQ.Restore(eventq.SavedEvent{Time: sev.Time, Kind: sev.Kind, Rank: sev.Rank})
	}
	return ref
}

// releaseRef recycles a fired event's reference payload through its
// kind's recycler, if any. Engines call it after the handler (and any
// replay recording) has consumed the payload.
func (k *kernel) releaseRef(ev eventq.Event) {
	if ev.Ref == nil {
		return
	}
	if rel := k.kinds[ev.Kind].release; rel != nil {
		rel(ev.Ref)
	}
}

// cancel removes a scheduled event (and its shadow) from the queues
// that own them, which are not necessarily this kernel's.
func (k *kernel) cancel(ref evRef) {
	if ref.mainQ != nil {
		ref.mainQ.Cancel(ref.main)
	}
	if ref.shadowQ != nil {
		ref.shadowQ.Cancel(ref.shadow)
	}
}

// nextDecide returns the timestamp of the earliest pending deciding
// event, or +inf when none is queued.
func (k *kernel) nextDecide() float64 {
	return shadowNext(k.decideQ)
}

// nextHandoff returns the timestamp of the earliest pending capacity
// handoff, or +inf when none is queued.
func (k *kernel) nextHandoff() float64 {
	return shadowNext(k.handoffQ)
}

func shadowNext(q *eventq.Queue) float64 {
	if q == nil {
		return inf
	}
	if t, ok := q.NextTime(); ok {
		return t
	}
	return inf
}

// sameKinds reports whether two kernels allocated identical kind
// tables — the cross-partition consistency the optimistic engine relies
// on to ship kind values between shards.
func sameKinds(a, b *kernel) bool {
	if len(a.kinds) != len(b.kinds) {
		return false
	}
	for i := 1; i < len(a.kinds); i++ {
		if a.kinds[i].name != b.kinds[i].name ||
			a.kinds[i].deciding != b.kinds[i].deciding ||
			a.kinds[i].handoff != b.kinds[i].handoff {
			return false
		}
	}
	return true
}

// dispatch applies one popped event through the registered handler.
func (k *kernel) dispatch(ev eventq.Event) error {
	if ev.Kind <= 0 || ev.Kind >= len(k.kinds) {
		return fmt.Errorf("sim: unknown event kind %d", ev.Kind)
	}
	return k.kinds[ev.Kind].handler(ev.A, ev.B, ev.Ref)
}
