package reorder

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"factorwindows/internal/stream"
)

// heapFixtureEvents is the stream behind testdata/state_heap_pr13.gob.
// Keys are distinct, so the (Time, Key) release order leaves no ties.
func heapFixtureEvents() []stream.Event {
	r := rand.New(rand.NewSource(18))
	events := make([]stream.Event, 900)
	tick := int64(0)
	for i := range events {
		tick += int64(r.Intn(3))
		events[i] = stream.Event{Time: tick + int64(r.Intn(24)), Key: uint64(i), Value: float64(r.Intn(1000)) / 8}
	}
	return events
}

// testdata/state_heap_pr13.gob is the gob of a State taken by the
// heap-based buffer at PR 13's commit (bound 16, Adjust), after pushing
// the first 500 events of heapFixtureEvents in 20-event batches: 16
// events pending, in heap-array order, two lates behind it. Every
// checkpoint and WAL snapshot written before the bucketed buffer embeds
// this encoding, so it must keep restoring: the restored buffer finishes
// the stream exactly as an uninterrupted buffer does.
func TestRestoreHeapEraState(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "state_heap_pr13.gob"))
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) != 16 || st.Seen != 500 || st.Late != 2 {
		t.Fatalf("fixture holds %d pending, %d seen, %d late", len(st.Pending), st.Seen, st.Late)
	}
	if slices.IsSortedFunc(st.Pending, func(a, b stream.Event) int { return int(a.Time - b.Time) }) {
		t.Fatal("fixture's pending events are already in tick order; it no longer stands for a heap-array State")
	}
	events := heapFixtureEvents()
	const cut, batch = 500, 20
	feed := func(b *Buffer, events []stream.Event) {
		for lo := 0; lo < len(events); lo += batch {
			b.Push(events[lo : lo+batch])
		}
		b.Close()
	}

	ref := &collectConsumer{}
	whole, err := New(ref, 16, Adjust, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed(whole, events)

	got := &collectConsumer{}
	restored, err := NewFromState(got, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Buffered() != 16 || restored.Released() != st.Released {
		t.Fatalf("restored %d buffered at horizon %d, fixture has 16 at %d", restored.Buffered(), restored.Released(), st.Released)
	}
	feed(restored, events[cut:])

	if restored.Late() != whole.Late() || restored.Seen() != whole.Seen() {
		t.Fatalf("late/seen across restore = %d/%d, uninterrupted %d/%d", restored.Late(), restored.Seen(), whole.Late(), whole.Seen())
	}
	// The restored buffer forwards what the uninterrupted one forwarded
	// after the cut: the last len(got) events, bit for bit.
	if len(got.events) <= 16 || len(got.events) >= len(ref.events) {
		t.Fatalf("restored run forwarded %d events of %d", len(got.events), len(ref.events))
	}
	if tail := ref.events[len(ref.events)-len(got.events):]; !slices.Equal(got.events, tail) {
		t.Fatal("events forwarded after the restore differ from the uninterrupted run's tail")
	}
}
