// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of scheduled
// events. Events fire in non-decreasing time order; events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-breaking via a
// monotone sequence number), which makes every simulation run fully
// deterministic for a fixed input.
//
// Every event is stored once, by value, in the engine's heap. An event
// carries an opaque uint32 slot for its owner (AtSlot, FiringSlot): owners
// keep their event payloads in a Slab indexed by that slot and schedule
// every event with one cached handler, so firing an event is a slice index
// and scheduling allocates nothing in steady state. Events cannot be
// cancelled; an owner that no longer wants one lets it fire and no-op.
//
// The kernel is single-threaded by design: disk-array simulations are
// causally ordered and the profitable parallelism lives one level up, across
// independent simulation runs (parameter sweeps), not inside one run.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Handler is the callback invoked when an event fires. The engine passes
// itself so handlers can schedule follow-up events without capturing the
// engine in every closure.
type Handler func(e *Engine)

// Tracer observes engine activity for diagnostics. All times are virtual
// seconds except wallNanos, the handler's wall-clock execution time. The
// interface uses only builtin types so implementations (e.g. the telemetry
// package's Chrome trace writer) need no dependency on this package.
//
// A tracer must not mutate the engine. When no tracer is installed the
// engine pays one nil check per operation and never reads the wall clock,
// so disabled tracing adds zero allocations and no nondeterminism.
type Tracer interface {
	// EventScheduled fires when an event is enqueued to run at time at.
	EventScheduled(id uint64, label string, at, now float64)
	// EventFired fires after an event's handler returns.
	EventFired(id uint64, label string, at float64, wallNanos int64)
}

// SpanTracer is an optional Tracer extension for logical intervals that are
// not single events — e.g. a request's life from arrival to completion.
// Both times are virtual seconds. Like Tracer it uses only builtin types so
// implementations need no dependency on this package; tracers that do not
// implement it simply never see spans.
type SpanTracer interface {
	Span(label string, start, end float64)
}

// EventID is a scheduled event's engine sequence number: it names the event
// in tracer output and fixes its FIFO position among same-instant events, so
// a checkpoint that records it can restore the original tie order. The zero
// EventID is never issued. Events cannot be cancelled; an owner that no
// longer wants one lets it fire and no-op.
type EventID uint64

// event is one queued event, stored by value in the heap: the heap slice is
// the only copy, so scheduling allocates nothing once it has grown to the
// peak queue depth.
type event struct {
	time    float64
	seq     uint64 // FIFO tie-breaker and identity
	handler Handler
	label   string // tracer annotation; "" for unlabeled events
	slot    uint32 // owner's opaque record index, read back via FiringSlot
}

// before orders events by (time, seq).
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by (time, seq), with direct sift
// methods rather than container/heap: the interface-based API boxes every
// element through `any` and cannot be inlined, and push/pop is the kernel's
// innermost loop. Sifts move a hole instead of swapping, so each level costs
// one element copy.
type eventHeap []event

// up restores the heap property after an insertion at index i.
//
//simlint:hotpath
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// down restores the heap property after the element at index i grew.
//
//simlint:hotpath
func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		left := 2*i + 1
		if left >= n || left < 0 { // left < 0 after int overflow
			break
		}
		child := left
		if right := left + 1; right < n && h[right].before(&h[left]) {
			child = right
		}
		if !h[child].before(&ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ev
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use and starts at virtual time zero.
type Engine struct {
	now       float64
	seq       uint64
	queue     eventHeap // every pending event, exactly once
	firing    uint32    // slot of the event whose handler is running
	fired     uint64
	stopped   bool
	tracer    Tracer
	spans     SpanTracer // tracer's SpanTracer side, cached; nil when absent
	watch     *Watch     // live ops view; nil when no observer is attached
	lastLabel string     // label of the most recently fired event
}

// SetTracer installs (or, with nil, removes) the engine's activity tracer.
// The tracer's SpanTracer extension, if implemented, is cached here so
// EmitSpan costs one nil check — not a type assertion — per call.
func (e *Engine) SetTracer(t Tracer) {
	e.tracer = t
	e.spans, _ = t.(SpanTracer)
}

// EmitSpan forwards a logical interval to the tracer's SpanTracer side.
// It is a no-op (and allocation-free) when no span tracer is installed.
func (e *Engine) EmitSpan(label string, start, end float64) {
	if e.spans != nil {
		e.spans.Span(label, start, end)
	}
}

// SetWatch installs (or, with nil, removes) a lock-free live view updated by
// RunGuarded after every fired event. With no watch installed the run loop
// pays one nil check per event and allocates nothing.
func (e *Engine) SetWatch(w *Watch) { e.watch = w }

// New returns an engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// AtLabeled arranges for h to run at absolute virtual time t, which must not
// be in the past, with a tracer label attached. Labels should be constant
// strings ("arrival", "service", ...): attaching one costs nothing and gives
// the event trace readable handler names. It is AtSlot with slot 0.
func (e *Engine) AtLabeled(t float64, label string, h Handler) (EventID, error) {
	return e.AtSlot(t, label, h, 0)
}

// AtSlot is AtLabeled with an opaque owner slot carried on the event and
// returned by FiringSlot while its handler runs. An owner that keeps its
// event payloads in a slab schedules every event with one cached handler
// and the payload's slab index, so dispatch is a slice index and scheduling
// allocates no per-event closure. It is the kernel's scheduling hot path:
// one call per simulated event, allocation-free once the queue has grown.
//
//simlint:hotpath
func (e *Engine) AtSlot(t float64, label string, h Handler, slot uint32) (EventID, error) {
	if h == nil {
		return 0, errors.New("des: nil handler")
	}
	if t < e.now || math.IsNaN(t) {
		return 0, fmt.Errorf("des: schedule time %v is before now %v", t, e.now) //simlint:allow hotalloc -- error branch: fires once on a caller bug, never in steady state
	}
	e.seq++
	e.queue = append(e.queue, event{time: t, seq: e.seq, handler: h, label: label, slot: slot})
	e.queue.up(len(e.queue) - 1)
	if e.tracer != nil {
		e.tracer.EventScheduled(e.seq, label, t, e.now)
	}
	return EventID(e.seq), nil
}

// Stop makes the current Run call return after the in-flight event handler
// finishes. Scheduled events remain queued and a later Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty. While the handler
// runs, FiringSlot reports the slot the event was scheduled with.
//
//simlint:hotpath
func (e *Engine) step() bool {
	n := len(e.queue) - 1
	if n < 0 {
		return false
	}
	ev := e.queue[0]
	e.queue[0] = e.queue[n]
	e.queue[n] = event{} // drop the handler and label references
	e.queue = e.queue[:n]
	if n > 0 {
		e.queue.down(0)
	}
	e.now = ev.time
	e.fired++
	e.lastLabel = ev.label
	e.firing = ev.slot
	if tr := e.tracer; tr != nil {
		start := time.Now() //simlint:allow detrand -- wall-clock handler timing feeds the trace file only, never simulation state
		ev.handler(e)
		tr.EventFired(ev.seq, ev.label, ev.time, time.Since(start).Nanoseconds()) //simlint:allow detrand -- see above
	} else {
		ev.handler(e)
	}
	return true
}

// FiringSlot returns the slot the currently running event was scheduled
// with (see AtSlot); between events it holds the last fired event's slot.
func (e *Engine) FiringSlot() uint32 { return e.firing }

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunGuarded is Run with a watchdog: if stallLimit consecutive events fire
// without the virtual clock advancing — the signature of a handler that
// keeps rescheduling itself at the current instant — it stops and returns a
// diagnostic error instead of spinning forever. Legitimate same-instant
// bursts (simultaneous arrivals, zero-delay kicks) are fine as long as they
// stay below the limit, so callers should pick a limit far above any
// plausible burst. It returns nil when the queue drains or Stop is called.
func (e *Engine) RunGuarded(stallLimit uint64) error {
	if stallLimit == 0 {
		return errors.New("des: watchdog stall limit must be positive")
	}
	e.watch.setLimit(stallLimit)
	e.stopped = false
	var streak uint64
	last := math.Inf(-1)
	for !e.stopped {
		if !e.step() {
			e.watch.publish(e.now, e.fired, uint64(len(e.queue)), streak, e.lastLabel)
			return nil
		}
		if e.now != last {
			last = e.now
			streak = 1
		} else {
			streak++
		}
		if w := e.watch; w != nil {
			w.publish(e.now, e.fired, uint64(len(e.queue)), streak, e.lastLabel)
		}
		if streak >= stallLimit {
			serr := &StallError{
				Streak:    streak,
				SimTime:   e.now,
				Fired:     e.fired,
				Pending:   len(e.queue),
				LastLabel: e.lastLabel,
			}
			e.watch.setStall(serr)
			return serr
		}
	}
	return nil
}

// Seq returns the engine's monotone event sequence counter: the number of
// events ever scheduled. Together with Fired it pins an engine's position in
// its deterministic trajectory, which is what checkpoint/restore preserves.
func (e *Engine) Seq() uint64 { return e.seq }

// BeginRestore prepares a fresh engine to be reloaded from a checkpoint
// taken at virtual time now. It is only valid on an engine that has never
// scheduled or fired anything; the caller then re-schedules the snapshot's
// pending events (in their original sequence order, at their original
// absolute times) and calls FinishRestore.
func (e *Engine) BeginRestore(now float64) error {
	if e.seq != 0 || e.fired != 0 || len(e.queue) != 0 {
		return errors.New("des: BeginRestore requires a fresh engine")
	}
	if now < 0 || math.IsNaN(now) {
		return fmt.Errorf("des: BeginRestore time %v invalid", now)
	}
	e.now = now
	return nil
}

// FinishRestore pins the sequence and fired counters to the checkpoint's
// values after the pending events have been re-scheduled. seq must be at
// least as large as the restore-time counter so future events keep sorting
// after the restored ones exactly as they would have in the original run.
func (e *Engine) FinishRestore(seq, fired uint64) error {
	if seq < e.seq {
		return fmt.Errorf("des: FinishRestore seq %d below already-scheduled %d", seq, e.seq)
	}
	e.seq = seq
	e.fired = fired
	return nil
}
