package parallel

import (
	"testing"
	"time"

	"factorwindows/internal/agg"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// TestSPSCRingOrderedHandoff hammers one ring with far more messages
// than its capacity, exercising both the full-producer and the
// empty-consumer park paths, and checks every message arrives exactly
// once in order.
func TestSPSCRingOrderedHandoff(t *testing.T) {
	q := newSPSCRing()
	const n = 100_000
	got := make(chan int64, 1)
	go func() {
		var sum, next int64
		for {
			m, ok := q.pop()
			if !ok {
				got <- sum
				return
			}
			if m.advance != next {
				t.Errorf("popped %d, want %d", m.advance, next)
			}
			next++
			sum += m.advance
		}
	}()
	for i := int64(0); i < n; i++ {
		q.push(shardMsg{advance: i, advanceSet: true})
	}
	q.close()
	if sum := <-got; sum != n*(n-1)/2 {
		t.Fatalf("sum %d, want %d", sum, n*(n-1)/2)
	}
}

// TestSPSCRingCloseDrains checks that messages pushed before close are
// all delivered before pop reports closed.
func TestSPSCRingCloseDrains(t *testing.T) {
	q := newSPSCRing()
	for i := int64(0); i < ringSize; i++ {
		q.push(shardMsg{advance: i, advanceSet: true})
	}
	q.close()
	for i := int64(0); i < ringSize; i++ {
		m, ok := q.pop()
		if !ok || m.advance != i {
			t.Fatalf("pop %d: got (%d, %t)", i, m.advance, ok)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop after drain must report closed")
	}
}

// TestBarrierReuse hammers the reusable barrier ack: many Barrier calls
// interleaved with Process and Advance, every one of which must see all
// prior work flushed. A final Close must still succeed.
func TestBarrierReuse(t *testing.T) {
	set := window.MustSet(window.Tumbling(4))
	p, err := plan.NewOriginal(set, agg.Count)
	if err != nil {
		t.Fatal(err)
	}
	sink := &stream.CollectingSink{}
	r, err := New(p, sink, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sent int64
	for round := int64(0); round < 500; round++ {
		batch := []stream.Event{
			{Time: round, Key: uint64(round % 7), Value: 1},
			{Time: round, Key: uint64(round % 5), Value: 1},
		}
		sent += int64(len(batch))
		r.Process(batch)
		if round%3 == 0 {
			r.Advance(round)
		}
		r.Barrier()
		// After the barrier every completed window's rows are in the sink;
		// the sink only grows, so a stale length would mean a lost ack.
		var rows int64
		for _, res := range sink.Results {
			rows += int64(res.Value)
		}
		complete := (round / 4) * 4 // events in windows closed by time round
		if rows < complete*2-8 {
			t.Fatalf("round %d: %d rows counted after barrier, want >= %d", round, rows, complete*2-8)
		}
	}
	r.Close()
	var rows int64
	for _, res := range sink.Results {
		rows += int64(res.Value)
	}
	if rows != sent {
		t.Fatalf("counted %d events after close, sent %d", rows, sent)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// panicSink panics on every delivery — a hostile user sink.
type panicSink struct{}

func (panicSink) Emit(stream.Result) { panic("sink exploded") }

// TestBarrierSurvivesPanickingSink pins the poison path's contract: a
// user sink that panics while a shard flushes during a barrier must
// poison the shard, not deadlock the driver waiting on a lost ack.
func TestBarrierSurvivesPanickingSink(t *testing.T) {
	set := window.MustSet(window.Tumbling(2))
	p, err := plan.NewOriginal(set, agg.Count)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(p, panicSink{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var events []stream.Event
	for tick := int64(0); tick < 64; tick++ {
		events = append(events, stream.Event{Time: tick, Key: uint64(tick % 8), Value: 1})
	}
	r.Process(events) // completed windows land in the shard sink buffers
	done := make(chan struct{})
	go func() { r.Barrier(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Barrier deadlocked on a panicking sink")
	}
	if err := r.Err(); err == nil {
		t.Fatal("poisoned shard must surface via Err")
	}
	r.Close()
}

// TestBarrierSurvivesPanickingSinkOrdered is the ordered-drain twin:
// there the sink runs on the driving goroutine, inside the Runner's
// drain, which must recover the panic into Err instead of unwinding it
// through Barrier — and Close must not re-raise it either.
func TestBarrierSurvivesPanickingSinkOrdered(t *testing.T) {
	set := window.MustSet(window.Tumbling(2))
	p, err := plan.NewOriginal(set, agg.Count)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(p, panicSink{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.SetOrderedDrain(true)
	var events []stream.Event
	for tick := int64(0); tick < 64; tick++ {
		events = append(events, stream.Event{Time: tick, Key: uint64(tick % 8), Value: 1})
	}
	r.Process(events)
	for _, step := range []struct {
		name string
		call func()
	}{{"Barrier", r.Barrier}, {"Close", r.Close}} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s panicked with the sink's panic: %v", step.name, p)
				}
			}()
			step.call()
		}()
		if err := r.Err(); err == nil {
			t.Fatalf("a sink panic in the ordered drain must surface via Err after %s", step.name)
		}
	}
}
