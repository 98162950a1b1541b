package reorder

// The heap-based reorder buffer that tickBuckets replaced, kept verbatim
// (type and constructor renamed, State plumbing dropped) as the oracle
// of the differential property test in diff_test.go and the baseline of
// the sparse-tick benchmark. Do not "fix" or modernise it: its value is
// that it is the behaviour every earlier release shipped.

import (
	"fmt"

	"factorwindows/internal/stream"
)

// heapBuffer is the bounded-disorder reorder buffer.
type heapBuffer struct {
	bound    int64
	policy   Policy
	consumer Consumer
	onLate   func(stream.Event)

	h         eventHeap
	watermark int64 // max event time seen
	// released is the sealed lateness horizon: every event with time
	// below it has been emitted or judged late, and no future event
	// below it will reach the consumer. Events AT the horizon are still
	// admissible — emitting one equals the last emitted time, which
	// keeps the output non-decreasing — so with bound 0 a run of equal
	// timestamps may straddle Push calls without losing its tail.
	released int64
	out      []stream.Event

	// cap bounds the heap (0: unbounded); capPolicy picks the overflow
	// behavior. Both live in server configuration, not State: a restored
	// checkpoint gets the current deployment's cap via SetCap, not the
	// one it was taken under.
	cap         int
	capPolicy   CapPolicy
	capDropped  int64
	capReleased int64

	late   int64
	seen   int64
	closed bool
}

// newHeapBuffer builds a reorder buffer feeding consumer. bound is the disorder
// tolerance in ticks (0 admits only already-ordered input). onLate, if
// non-nil, observes events that violated the bound (before the policy is
// applied).
func newHeapBuffer(consumer Consumer, bound int64, policy Policy, onLate func(stream.Event)) (*heapBuffer, error) {
	if consumer == nil {
		return nil, fmt.Errorf("reorder: nil consumer")
	}
	if bound < 0 {
		return nil, fmt.Errorf("reorder: negative bound %d", bound)
	}
	return &heapBuffer{bound: bound, policy: policy, consumer: consumer, onLate: onLate,
		released: NoRelease}, nil
}

// Push accepts a batch of possibly out-of-order events. Large batches
// drain incrementally so the buffer never holds much more than the
// disorder bound's worth of events.
//
// The dominant steady-state batch — already in non-decreasing time
// order and starting at or past everything buffered — takes a sorted
// fast path: the whole ≤-horizon prefix (buffered events first, then
// the batch prefix) releases in one consumer call without any per-event
// heap traffic, and only the ≤ bound ticks of tail events touch the
// heap (each an O(1) sift, since they arrive in ascending order).
func (b *heapBuffer) Push(events []stream.Event) {
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

// capPush inserts e into the heap, enforcing the memory cap first. The
// watermark must already reflect e: a cap-rejected event still advances
// the clock (it was seen), it just never reaches the consumer.
func (b *heapBuffer) capPush(e stream.Event) {
	if b.cap > 0 && b.h.len() >= b.cap {
		if b.capPolicy == RejectNewest {
			b.capDropped++
			return
		}
		b.forceRelease(b.h.len() - b.cap + 1)
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
	b.h.push(e)
}

// forceRelease seals the horizon upward until at least k buffered
// events have been emitted, oldest first. Each step releases every
// event sharing the current minimum timestamp, so the output clock
// never regresses.
func (b *heapBuffer) forceRelease(k int) {
	for k > 0 && b.h.len() > 0 {
		before := b.h.len()
		b.release(b.h.min().Time)
		n := before - b.h.len()
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
// batch events and batch events in arrival order, whereas the heap path
// orders by (Time, Key); consumers only rely on non-decreasing times,
// which both orders satisfy.
func (b *heapBuffer) pushSorted(events []stream.Event) bool {
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
	out := b.out[:0]
	for b.h.len() > 0 && b.h.min().Time <= horizon {
		out = append(out, b.h.pop())
	}
	b.out = out
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
	// Tail events (> horizon) enter the heap only after the releasable
	// prefix went downstream, so a cap-forced release inside capPush can
	// never emit a tail event ahead of the prefix.
	for _, e := range events[p:] {
		b.capPush(e)
	}
	return true
}

// release emits every buffered event with time ≤ horizon, in time order,
// and seals the horizon: anything arriving strictly below it afterwards
// is late (ASA judges lateness against watermark − bound, whether or not
// an event happened to be emitted there). Arrivals AT the horizon stay
// admissible: they emit immediately without breaking time order.
func (b *heapBuffer) release(horizon int64) {
	b.out = b.out[:0]
	for b.h.len() > 0 && b.h.min().Time <= horizon {
		b.out = append(b.out, b.h.pop())
	}
	if horizon > b.released {
		b.released = horizon
	}
	if len(b.out) > 0 {
		b.consumer.Process(b.out)
	}
}

// SetCap bounds the pending-event heap at n events (0 removes the
// bound) with the given overflow policy. Under ReleaseOldest an
// already-over-cap heap is trimmed immediately (emitting the overflow
// to the consumer); under RejectNewest an oversized heap only shrinks
// as the watermark advances, but admits nothing while at or over cap.
func (b *heapBuffer) SetCap(n int, policy CapPolicy) {
	b.cap = n
	b.capPolicy = policy
	if n > 0 && policy == ReleaseOldest && b.h.len() > n {
		b.forceRelease(b.h.len() - n)
	}
}

// Close drains the buffer into the consumer. The consumer's own Close
// (flush) remains the caller's responsibility.
func (b *heapBuffer) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.release(1<<62 - 1)
}

// Released returns the sealed release horizon: every event with time
// below it has already been handed to the consumer (or judged late),
// and no future event below it will be emitted. Events at the horizon
// itself remain admissible, so a consumer may safely finalize exactly
// the windows ending at or before it.
func (b *heapBuffer) Released() int64 { return b.released }

// Late returns the number of events that violated the disorder bound.
func (b *heapBuffer) Late() int64 { return b.late }

// Seen returns the total number of events pushed.
func (b *heapBuffer) Seen() int64 { return b.seen }

// Buffered returns the number of events currently held back.
func (b *heapBuffer) Buffered() int { return b.h.len() }

// CapDropped returns the number of events dropped by the memory cap.
func (b *heapBuffer) CapDropped() int64 { return b.capDropped }

// CapReleased returns the number of events the cap force-released
// early (ReleaseOldest policy).
func (b *heapBuffer) CapReleased() int64 { return b.capReleased }

// eventHeap is a typed min-heap of events on (Time, Key) — the key
// tiebreak keeps release order deterministic for equal timestamps, and
// the typed implementation avoids container/heap's per-event interface
// boxing on the ingest hot path.
type eventHeap struct {
	es []stream.Event
}

func (h *eventHeap) len() int           { return len(h.es) }
func (h *eventHeap) min() *stream.Event { return &h.es[0] }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.es[i], &h.es[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Key < b.Key
}

func (h *eventHeap) push(e stream.Event) {
	h.es = append(h.es, e)
	// Sift up.
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.es[i], h.es[parent] = h.es[parent], h.es[i]
		i = parent
	}
}

func (h *eventHeap) pop() stream.Event {
	top := h.es[0]
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es = h.es[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return top
		}
		h.es[i], h.es[small] = h.es[small], h.es[i]
		i = small
	}
}
