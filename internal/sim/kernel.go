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
// touches platform state; the serial loop (serial.go) drives it.
//
// Event kinds are an open registry, not a closed enum: a subsystem
// allocates each kind it owns with registerKind and receives an opaque
// handle back, so new mechanisms plug in without touching the kernel
// or the loop. Kind numbering follows registration order, which is
// fixed (newShard is the only registration site); snapshots reference
// kinds by number and guard the table with kindTableHash. Kind numbers
// never influence event ordering — the queue orders purely on (time,
// scheduling order) — so the numbering is free to change as subsystems
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
// handler, and its payload codec (how the checkpoint subsystem
// serializes the kind's pending events).
type kindInfo struct {
	name    string
	handler handlerFunc

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
// order, which is identical across runs for the same reason kind
// numbering is.
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

// kernel is the event loop core: clock, queue, kind registry, and
// processed-event count.
type kernel struct {
	q   *eventq.Queue
	now float64

	// events counts dispatched events.
	events int64

	// kinds is the event-kind registry. Index 0 is reserved so the
	// zero kind is caught at dispatch.
	kinds []kindInfo

	// codecs is the state registry: one StateCodec per subsystem, in
	// registration order (see stateCodec).
	codecs []stateCodec
}

func newKernel() *kernel {
	k := &kernel{q: eventq.New(), kinds: make([]kindInfo, 1)}
	// Route reference payloads of canceled-and-dropped events to their
	// kind's recycler, if it registered one.
	k.q.SetDropHook(func(kd int, ref any) {
		if kd > 0 && kd < len(k.kinds) && k.kinds[kd].release != nil {
			k.kinds[kd].release(ref)
		}
	})
	return k
}

// registerKind allocates a new event kind owned by the calling
// subsystem and installs its handler.
func (k *kernel) registerKind(name string, h handlerFunc) kind {
	if h == nil {
		panic(fmt.Sprintf("sim: event kind %q registered with nil handler", name))
	}
	for _, info := range k.kinds[1:] {
		if info.name == name {
			panic(fmt.Sprintf("sim: event kind %q registered twice", name))
		}
	}
	k.kinds = append(k.kinds, kindInfo{
		name: name, handler: h,
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
// registry. Like event kinds, codec order follows registration order;
// the snapshot format records the codec names so a mismatched restore
// is caught.
func (k *kernel) registerState(name string, save func(*snapEncoder), load func(*snapDecoder) error) {
	for _, c := range k.codecs {
		if c.name == name {
			panic(fmt.Sprintf("sim: state codec %q registered twice", name))
		}
	}
	k.codecs = append(k.codecs, stateCodec{name: name, save: save, load: load})
}

// schedule adds an event at time t. The payload is the inline word
// pair (a, b); the rare reference payloads go through scheduleRef.
func (k *kernel) schedule(t float64, kd kind, a, b int64) eventq.Handle {
	return k.q.Schedule(t, int(kd), a, b, nil)
}

// scheduleRef is schedule for kinds that carry a reference payload.
func (k *kernel) scheduleRef(t float64, kd kind, a, b int64, payload any) eventq.Handle {
	return k.q.Schedule(t, int(kd), a, b, payload)
}

// releaseRef recycles a fired event's reference payload through its
// kind's recycler, if any. The loop calls it after the handler (and
// any replay recording) has consumed the payload.
func (k *kernel) releaseRef(ev eventq.Event) {
	if ev.Ref == nil {
		return
	}
	if rel := k.kinds[ev.Kind].release; rel != nil {
		rel(ev.Ref)
	}
}

// cancel removes a scheduled event; stale handles are ignored.
func (k *kernel) cancel(h eventq.Handle) { k.q.Cancel(h) }

// dispatch applies one popped event through the registered handler.
func (k *kernel) dispatch(ev eventq.Event) error {
	if ev.Kind <= 0 || ev.Kind >= len(k.kinds) {
		return fmt.Errorf("sim: unknown event kind %d", ev.Kind)
	}
	return k.kinds[ev.Kind].handler(ev.A, ev.B, ev.Ref)
}
