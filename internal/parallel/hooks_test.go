package parallel

import (
	"math/rand"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

func hooksPlan(t *testing.T) *plan.Plan {
	t.Helper()
	set := window.MustSet(window.Tumbling(8), window.Hopping(16, 8), window.Tumbling(32))
	res, err := core.Optimize(set, agg.Sum, core.Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, agg.Sum, plan.Factored)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hooksEvents(n int, seed int64) []stream.Event {
	r := rand.New(rand.NewSource(seed))
	events := make([]stream.Event, 0, n)
	tick := int64(0)
	for i := 0; i < n; i++ {
		tick += int64(r.Intn(2))
		events = append(events, stream.Event{
			Time: tick, Key: uint64(r.Intn(16)), Value: float64(r.Intn(50)),
		})
	}
	return events
}

// TestBarrierFlushesPromptly: without a barrier, a small batch's results
// sit in the per-shard buffers; Barrier makes them visible. (Reading the
// sink after Barrier is race-free: the ack channel orders the shards'
// writes before the read.)
func TestBarrierFlushesPromptly(t *testing.T) {
	p := hooksPlan(t)
	sink := &stream.CollectingSink{}
	r, err := New(p, sink, 4)
	if err != nil {
		t.Fatal(err)
	}
	events := hooksEvents(500, 1)
	r.Process(events)
	r.Barrier()
	mid := len(sink.Results)
	if mid == 0 {
		t.Fatal("no results visible after Barrier")
	}
	r.Process([]stream.Event{{Time: events[len(events)-1].Time + 100, Key: 1, Value: 1}})
	r.Barrier()
	if len(sink.Results) <= mid {
		t.Fatal("watermark-crossing event fired nothing after Barrier")
	}
	r.Close()
	r.Barrier() // no-op after Close
}

// TestAdvanceBroadcast: keys pinned to one shard cannot complete the
// other shards' windows; Advance must.
func TestAdvanceBroadcast(t *testing.T) {
	p := hooksPlan(t)
	sink := &stream.CollectingSink{}
	r, err := New(p, sink, 4)
	if err != nil {
		t.Fatal(err)
	}
	// All 16 keys get events in [0,32); then only key 0's shard sees the
	// far future.
	events := hooksEvents(400, 2)
	r.Process(events)
	r.Process([]stream.Event{{Time: 1 << 20, Key: 0, Value: 1}})
	r.Barrier()
	base := len(sink.Results)
	r.Advance(1 << 20)
	r.Barrier()
	fired := sink.Results[base:]
	if len(fired) == 0 {
		t.Fatal("Advance fired nothing on quiet shards")
	}
	for _, res := range fired {
		if res.End > 1<<20 {
			t.Fatalf("Advance fired incomplete instance %v", res)
		}
	}
	r.Close()
}

// TestShardFailureContained: an input-contract violation (out-of-order
// events, as a corrupt restored state would produce) must poison the
// shard and surface via Err — not crash the process or wedge senders.
func TestShardFailureContained(t *testing.T) {
	// A hopping root (k > 1) detects out-of-order input.
	set := window.MustSet(window.Hopping(16, 8))
	p, err := plan.NewOriginal(set, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(p, &stream.CountingSink{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.Process([]stream.Event{{Time: 1000, Key: 0, Value: 1}})
	r.Barrier()
	if err := r.Err(); err != nil {
		t.Fatalf("healthy runner reports %v", err)
	}
	r.Process([]stream.Event{{Time: 0, Key: 0, Value: 1}}) // violates ordering
	r.Barrier()
	if err := r.Err(); err == nil {
		t.Fatal("contract violation not surfaced")
	}
	// The poisoned runner keeps draining: none of these may block or panic.
	r.Process([]stream.Event{{Time: 2000, Key: 0, Value: 1}})
	r.Advance(2000)
	r.Barrier()
	if _, err := r.Snapshot(); err == nil {
		t.Fatal("Snapshot of a failed runner must error")
	}
	r.Close()
	if err := r.Err(); err == nil {
		t.Fatal("Err lost after Close")
	}
}

// TestSnapshotRestore: resuming from a snapshot yields exactly the
// results an uninterrupted run would have produced.
func TestSnapshotRestore(t *testing.T) {
	p := hooksPlan(t)
	events := hooksEvents(2000, 3)
	cut := 1000

	ref := &stream.CollectingSink{}
	if _, err := Run(p, events, ref, 3); err != nil {
		t.Fatal(err)
	}

	first := &stream.CollectingSink{}
	r1, err := New(p, first, 3)
	if err != nil {
		t.Fatal(err)
	}
	r1.Process(events[:cut])
	snap, err := r1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapEvents := r1.Events()
	// Snapshot barriers, so everything fired pre-cut is in the sink now.
	preCut := append([]stream.Result(nil), first.Results...)
	// r1 keeps running after the snapshot; finish it to check the
	// snapshot is non-destructive.
	r1.Process(events[cut:])
	r1.Close()

	resumed := &stream.CollectingSink{}
	r2, err := restore(p, resumed, snap, snapEvents)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Shards() != 3 {
		t.Fatalf("restored %d shards", r2.Shards())
	}
	if r2.Events() != int64(cut) {
		t.Fatalf("restored event count %d", r2.Events())
	}
	r2.Process(events[cut:])
	r2.Close()

	// The original full run matches the reference exactly, and the
	// resumed run emits exactly the reference minus what had already
	// fired before the snapshot.
	want := ref.Sorted()
	got := first.Sorted()
	if len(got) != len(want) {
		t.Fatalf("original emitted %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("original result %d: %v != %v", i, got[i], want[i])
		}
	}
	remaining := make(map[stream.Result]int, len(want))
	for _, res := range want {
		remaining[res]++
	}
	for _, res := range preCut {
		remaining[res]--
	}
	for _, res := range resumed.Results {
		remaining[res]--
	}
	for res, n := range remaining {
		if n != 0 {
			t.Fatalf("resumed continuation off by %d on %v", n, res)
		}
	}

	// A snapshot must not restore onto a different plan.
	other := window.MustSet(window.Tumbling(6))
	po, err := plan.NewOriginal(other, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restore(po, &stream.CountingSink{}, snap, snapEvents); err == nil {
		t.Fatal("cross-plan restore must fail")
	}
}

// restore resumes goroutine shards from Snapshot's per-shard blobs.
func restore(p *plan.Plan, sink stream.Sink, snap [][]byte, events int64) (*Runner, error) {
	state, err := engine.Snapshots(p, snap, events)
	if err != nil {
		return nil, err
	}
	r, _, err := Resume(p, sink, 0, state, 0)
	return r, err
}
