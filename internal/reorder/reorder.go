// Package reorder provides a bounded-disorder buffer that turns an
// out-of-order event stream into the in-order stream the executors
// require. Azure Stream Analytics exposes exactly this knob ("out of
// order tolerance window"); the paper's setting assumes in-order input,
// so this adapter is what connects the library to real event feeds.
//
// Events may arrive up to Bound ticks later than the maximum timestamp
// seen so far. The buffer holds events in per-tick buckets (tickBuckets)
// and releases every tick ≤ watermark − Bound as the watermark advances,
// each tick sorted by key as it leaves: release order is (Time, Key),
// and events equal in both leave in arrival order. Events older than the
// horizon are late: they are either dropped or redirected to a callback
// (dead-letter queue), matching ASA's drop/adjust policies.
package reorder

import (
	"fmt"

	"factorwindows/internal/stream"
)

// Consumer receives the re-ordered stream, batch by batch. Both
// engine.Runner and the baseline runners satisfy it.
type Consumer interface {
	Process(events []stream.Event)
}

// NoRelease is the initial release horizon: before any event arrives,
// nothing has been released. Consumers that gate on the horizon (the
// serving layer's epoch minStart, its watermark broadcasts) compare
// against this sentinel rather than re-declaring it.
const NoRelease int64 = -1 << 62

// Policy says what to do with events older than the tolerance bound.
type Policy int

// Drop discards late events silently (counting them); Adjust rewrites
// their timestamp to the current release horizon, ASA's "adjust" mode.
const (
	Drop Policy = iota
	Adjust
)

func (p Policy) String() string {
	if p == Adjust {
		return "adjust"
	}
	return "drop"
}

// CapPolicy says what to do when the buffer's pending events hit the
// configured memory cap (SetCap). Either way the backlog never grows
// past the cap: overload degrades explicitly instead of growing memory
// without bound.
type CapPolicy int

const (
	// ReleaseOldest force-releases the oldest buffered events to make
	// room, sealing the horizon early. In-bound stragglers that arrive
	// below the forced horizon afterwards are judged by the ordinary
	// lateness policy — bounded memory is bought with earlier lateness.
	ReleaseOldest CapPolicy = iota
	// RejectNewest drops the arriving event instead (counted in
	// CapDropped); buffered events keep their full disorder tolerance.
	RejectNewest
)

func (p CapPolicy) String() string {
	if p == RejectNewest {
		return "reject"
	}
	return "release"
}

// ParseCapPolicy parses the flag spelling of a CapPolicy.
func ParseCapPolicy(s string) (CapPolicy, error) {
	switch s {
	case "release":
		return ReleaseOldest, nil
	case "reject":
		return RejectNewest, nil
	}
	return 0, fmt.Errorf("reorder: unknown cap policy %q (want release or reject)", s)
}

// Buffer is the bounded-disorder reorder buffer.
type Buffer struct {
	bound    int64
	policy   Policy
	consumer Consumer
	onLate   func(stream.Event)

	p         tickBuckets
	watermark int64 // max event time seen
	// released is the sealed lateness horizon: every event with time
	// below it has been emitted or judged late, and no future event
	// below it will reach the consumer. Events AT the horizon are still
	// admissible — emitting one equals the last emitted time, which
	// keeps the output non-decreasing — so with bound 0 a run of equal
	// timestamps may straddle Push calls without losing its tail.
	released int64
	out      []stream.Event

	// cap bounds the pending events (0: unbounded); capPolicy picks the
	// overflow behavior. Both live in server configuration, not State: a
	// restored checkpoint gets the current deployment's cap via SetCap,
	// not the one it was taken under.
	cap         int
	capPolicy   CapPolicy
	capDropped  int64
	capReleased int64

	late   int64
	seen   int64
	closed bool
}

// New builds a reorder buffer feeding consumer. bound is the disorder
// tolerance in ticks (0 admits only already-ordered input). onLate, if
// non-nil, observes events that violated the bound (before the policy is
// applied).
func New(consumer Consumer, bound int64, policy Policy, onLate func(stream.Event)) (*Buffer, error) {
	if consumer == nil {
		return nil, fmt.Errorf("reorder: nil consumer")
	}
	if bound < 0 {
		return nil, fmt.Errorf("reorder: negative bound %d", bound)
	}
	return &Buffer{bound: bound, policy: policy, consumer: consumer, onLate: onLate,
		released: NoRelease}, nil
}

// Push accepts a batch of possibly out-of-order events. Large batches
// drain incrementally so the buffer never holds much more than the
// disorder bound's worth of events.
//
// The dominant steady-state batch — already in non-decreasing time
// order and starting at or past everything buffered — takes a sorted
// fast path: the whole ≤-horizon prefix (buffered events first, then
// the batch prefix) releases in one consumer call, and only the ≤ bound
// ticks of tail events are buffered.
func (b *Buffer) Push(events []stream.Event) {
	if b.closed {
		panic("reorder: Push after Close")
	}
	if b.pushSorted(events) {
		return
	}
	for i, e := range events {
		b.seen++
		if i&0xfff == 0xfff {
			b.release(b.watermark - b.bound)
		}
		if e.Time < b.released {
			b.late++
			if b.onLate != nil {
				b.onLate(e)
			}
			if b.policy == Drop {
				continue
			}
			e.Time = b.released // Adjust: move into the oldest open tick
		}
		if e.Time > b.watermark {
			b.watermark = e.Time
		}
		b.capPush(e)
	}
	b.release(b.watermark - b.bound)
}

// capPush buffers e, enforcing the memory cap first. The watermark must
// already reflect e: a cap-rejected event still advances the clock (it
// was seen), it just never reaches the consumer.
func (b *Buffer) capPush(e stream.Event) {
	if b.cap > 0 && b.p.len() >= b.cap {
		if b.capPolicy == RejectNewest {
			b.capDropped++
			return
		}
		b.forceRelease(b.p.len() - b.cap + 1)
		if e.Time < b.released {
			// The forced horizon overtook this event; emitting it now
			// would regress the output clock, so it degrades by the
			// lateness policy — but is accounted to the cap, which
			// caused it.
			if b.policy != Adjust {
				b.capDropped++
				return
			}
			e.Time = b.released
		}
	}
	b.p.push(e)
}

// forceRelease seals the horizon upward until at least k buffered
// events have been emitted, oldest first. Each step releases every
// event sharing the current minimum timestamp, so the output clock
// never regresses.
func (b *Buffer) forceRelease(k int) {
	for k > 0 && b.p.len() > 0 {
		before := b.p.len()
		b.release(b.p.minTick())
		n := before - b.p.len()
		k -= n
		b.capReleased += int64(n)
	}
}

// pushSorted is Push's batch fast path. It applies when the batch is
// internally in non-decreasing time order and its first event is at or
// past both the watermark (so nothing buffered sorts after any batch
// event) and the sealed release horizon (so no event is late). It
// reports whether it handled the batch.
//
// Within equal timestamps the fast path releases buffered events before
// batch events and batch events in arrival order, whereas the buffered
// path orders by (Time, Key); consumers only rely on non-decreasing
// times, which both orders satisfy.
func (b *Buffer) pushSorted(events []stream.Event) bool {
	if len(events) == 0 {
		return true
	}
	first := events[0].Time
	if first < b.watermark || first < b.released {
		return false
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			return false
		}
	}
	b.seen += int64(len(events))
	b.watermark = events[len(events)-1].Time
	horizon := b.watermark - b.bound
	// The releasable batch prefix ends where times exceed the horizon;
	// the tail is at most the disorder bound's worth of events, so scan
	// from the back.
	p := len(events)
	for p > 0 && events[p-1].Time > horizon {
		p--
	}
	out := b.drain(horizon)
	if horizon > b.released {
		b.released = horizon
	}
	// Everything buffered precedes the batch (time ≤ old watermark ≤
	// first), so drained-then-prefix release order is correct whether
	// they go downstream merged or as two consecutive calls. Merge when
	// the result stays small (one batch through the pipeline, and the
	// retained b.out stays bounded by mergeLimit); for oversized
	// one-shot pushes hand the batch prefix through zero-copy instead
	// (consumers neither retain nor mutate their input), so b.out never
	// grows with the caller's batch size.
	if len(out) > 0 && len(out)+p <= mergeLimit {
		out = append(out, events[:p]...)
		b.out = out
		b.consumer.Process(out)
	} else {
		if len(out) > 0 {
			b.consumer.Process(out)
		}
		if p > 0 {
			b.consumer.Process(events[:p])
		}
	}
	// Tail events (> horizon) are buffered only after the releasable
	// prefix went downstream, so a cap-forced release inside capPush can
	// never emit a tail event ahead of the prefix.
	for _, e := range events[p:] {
		b.capPush(e)
	}
	return true
}

// mergeLimit caps the release buffer the sorted fast path retains,
// mirroring the buffered path's incremental drain bound.
const mergeLimit = 16384

// release emits every buffered event with time ≤ horizon, in time order,
// and seals the horizon: anything arriving strictly below it afterwards
// is late (ASA judges lateness against watermark − bound, whether or not
// an event happened to be emitted there). Arrivals AT the horizon stay
// admissible: they emit immediately without breaking time order.
func (b *Buffer) release(horizon int64) {
	out := b.drain(horizon)
	if horizon > b.released {
		b.released = horizon
	}
	if len(out) > 0 {
		b.consumer.Process(out)
	}
}

// drain moves every buffered tick ≤ horizon into the recycled release
// buffer, in (Time, Key) order, and returns it.
func (b *Buffer) drain(horizon int64) []stream.Event {
	out := b.out[:0]
	for b.p.len() > 0 && b.p.minTick() <= horizon {
		out = b.p.popMin(out)
	}
	b.out = out
	return out
}

// SetCap bounds the pending events at n (0 removes the bound) with the
// given overflow policy. Under ReleaseOldest an already-over-cap backlog
// is trimmed immediately (emitting the overflow to the consumer); under
// RejectNewest an oversized backlog only shrinks as the watermark
// advances, but admits nothing while at or over cap.
func (b *Buffer) SetCap(n int, policy CapPolicy) {
	b.cap = n
	b.capPolicy = policy
	if n > 0 && policy == ReleaseOldest && b.p.len() > n {
		b.forceRelease(b.p.len() - n)
	}
}

// Close drains the buffer into the consumer. The consumer's own Close
// (flush) remains the caller's responsibility.
func (b *Buffer) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.release(1<<62 - 1)
}

// State is a serializable snapshot of a Buffer: its configuration, its
// lateness bookkeeping, and the events still held back. It lets a
// long-running ingest pipeline carry pending events and the sealed
// release horizon across a consumer swap (re-planning a live query set)
// or a process restart (checkpoint/restore).
type State struct {
	Bound     int64
	Policy    Policy
	Watermark int64
	Released  int64
	Late      int64
	Seen      int64
	Pending   []stream.Event
	// Cap drop accounting survives consumer swaps and checkpoints; the
	// cap itself does not (see SetCap — it is deployment configuration).
	CapDropped  int64
	CapReleased int64
}

// Snapshot captures the buffer's current state. The buffer remains
// usable; take snapshots between Push calls.
func (b *Buffer) Snapshot() State {
	return State{
		Bound:       b.bound,
		Policy:      b.policy,
		Watermark:   b.watermark,
		Released:    b.released,
		Late:        b.late,
		Seen:        b.seen,
		CapDropped:  b.capDropped,
		CapReleased: b.capReleased,
		// Tick order, arrival order within a tick: re-pushing them in
		// this order rebuilds the same buckets.
		Pending: b.p.appendPending(nil),
	}
}

// NewFromState rebuilds a buffer from a Snapshot, feeding consumer.
// Restoring Released preserves the lateness contract: events below the
// sealed horizon stay late even though the buffer is new, so the
// consumer's in-order guarantee survives the swap. The state may come
// from an untrusted checkpoint, so the pending events are validated
// against the sealed horizon and re-pushed rather than trusted
// positionally — a tampered State (or one written by the heap-based
// buffer this one replaced, whose Pending is in heap-array order) must
// not make the buffer release out of order.
func NewFromState(consumer Consumer, st State, onLate func(stream.Event)) (*Buffer, error) {
	b, err := New(consumer, st.Bound, st.Policy, onLate)
	if err != nil {
		return nil, err
	}
	b.watermark = st.Watermark
	b.released = st.Released
	b.late = st.Late
	b.seen = st.Seen
	b.capDropped = st.CapDropped
	b.capReleased = st.CapReleased
	for _, e := range st.Pending {
		if e.Time < st.Released {
			return nil, fmt.Errorf("reorder: pending event at %d precedes the sealed horizon %d",
				e.Time, st.Released)
		}
		b.p.push(e)
		if e.Time > b.watermark {
			b.watermark = e.Time
		}
	}
	return b, nil
}

// Released returns the sealed release horizon: every event with time
// below it has already been handed to the consumer (or judged late),
// and no future event below it will be emitted. Events at the horizon
// itself remain admissible, so a consumer may safely finalize exactly
// the windows ending at or before it.
func (b *Buffer) Released() int64 { return b.released }

// Late returns the number of events that violated the disorder bound.
func (b *Buffer) Late() int64 { return b.late }

// Seen returns the total number of events pushed.
func (b *Buffer) Seen() int64 { return b.seen }

// Buffered returns the number of events currently held back.
func (b *Buffer) Buffered() int { return b.p.len() }

// CapDropped returns the number of events dropped by the memory cap.
func (b *Buffer) CapDropped() int64 { return b.capDropped }

// CapReleased returns the number of events the cap force-released
// early (ReleaseOldest policy).
func (b *Buffer) CapReleased() int64 { return b.capReleased }
