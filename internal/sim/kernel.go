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

// handlerFunc applies one event's payload — its two words (a, b), see
// eventq.Event — to shard state. Payloads never leave those two
// words, which is what keeps the event loop allocation-free.
type handlerFunc func(a, b int64) error

// kindInfo is one registry entry: the kind's diagnostic name and its
// handler.
type kindInfo struct {
	name    string
	handler handlerFunc
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
	return &kernel{q: eventq.New(), kinds: make([]kindInfo, 1)}
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
	k.kinds = append(k.kinds, kindInfo{name: name, handler: h})
	return kind(len(k.kinds) - 1)
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

// schedule adds an event at time t with payload words (a, b).
func (k *kernel) schedule(t float64, kd kind, a, b int64) eventq.Handle {
	return k.q.Schedule(t, int(kd), a, b)
}

// cancel removes a scheduled event; stale handles are ignored.
func (k *kernel) cancel(h eventq.Handle) { k.q.Cancel(h) }

// dispatch applies one popped event through the registered handler.
func (k *kernel) dispatch(ev eventq.Event) error {
	if ev.Kind <= 0 || ev.Kind >= len(k.kinds) {
		return fmt.Errorf("sim: unknown event kind %d", ev.Kind)
	}
	return k.kinds[ev.Kind].handler(ev.A, ev.B)
}
