package multiquery

import (
	"math/rand"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/parallel"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// TestSinkOnParallelRunner: the exported routing sink must let the
// combined plan run on the key-sharded executor with the same routed
// output as the single-core Run path.
func TestSinkOnParallelRunner(t *testing.T) {
	queries := []Query{
		{ID: "a", Windows: []window.Window{window.Tumbling(8), window.Tumbling(16)}},
		{ID: "b", Windows: []window.Window{window.Hopping(16, 8), window.Tumbling(8)}},
	}
	p, err := Optimize(queries, agg.Sum, core.Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	if subs := p.Subscribers(window.Tumbling(8)); len(subs) != 2 || subs[0] != "a" || subs[1] != "b" {
		t.Fatalf("Subscribers = %v", subs)
	}

	r := rand.New(rand.NewSource(9))
	events := make([]stream.Event, 0, 1500)
	tick := int64(0)
	for i := 0; i < 1500; i++ {
		tick += int64(r.Intn(2))
		events = append(events, stream.Event{
			Time: tick, Key: uint64(r.Intn(8)), Value: float64(r.Intn(50)),
		})
	}

	type tagged struct {
		ids string
		res stream.Result
	}
	flatten := func(rts []Routed) map[tagged]int {
		out := make(map[tagged]int)
		for _, rt := range rts {
			key := tagged{res: rt.Result}
			for _, id := range rt.QueryIDs {
				key.ids += id + ","
			}
			out[key]++
		}
		return out
	}

	var single []Routed
	if err := p.Run(events, func(rt Routed) { single = append(single, rt) }); err != nil {
		t.Fatal(err)
	}

	var sharded []Routed
	pr, err := parallel.New(p.Combined, p.Sink(func(rt Routed) { sharded = append(sharded, rt) }), 4)
	if err != nil {
		t.Fatal(err)
	}
	pr.Process(events)
	pr.Close()

	// The run sink — the serving path's — routes whole runs; row for row
	// it must tag what the per-row sink tags.
	var runs []Routed
	rr, err := parallel.New(p.Combined, p.RunSink(func(ids []string, run stream.Run) {
		for i, k := range run.Keys {
			runs = append(runs, Routed{QueryIDs: ids, Result: stream.Result{
				W: run.W, Start: run.Start, End: run.End, Key: k, Value: run.Vals[i]}})
		}
	}), 4)
	if err != nil {
		t.Fatal(err)
	}
	rr.Process(events)
	rr.Close()

	want := flatten(single)
	if len(single) == 0 {
		t.Fatal("single-core run routed nothing")
	}
	for name, routed := range map[string][]Routed{"sharded": sharded, "sharded runs": runs} {
		got := flatten(routed)
		if len(routed) != len(single) {
			t.Fatalf("routed %d single-core, %d %s", len(single), len(routed), name)
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("routed result %+v: %d %s vs %d single-core", k, got[k], name, n)
			}
		}
	}
}

// TestPerRowEmitDoesNotAllocate: the run and batch sinks' per-row entry
// points wrap the row in a one-row run (batch) without a per-call heap
// allocation.
func TestPerRowEmitDoesNotAllocate(t *testing.T) {
	p, err := Optimize([]Query{{ID: "a", Windows: []window.Window{window.Tumbling(8)}}}, agg.Sum, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	row := stream.Result{W: window.Tumbling(8), Start: 0, End: 8, Key: 3, Value: 1.5}
	for name, sink := range map[string]stream.Sink{
		"RunSink":   p.RunSink(func(ids []string, run stream.Run) { rows += run.Len() }),
		"BatchSink": p.BatchSink(func(rb RoutedBatch) { rows += len(rb.Results) }),
	} {
		if allocs := testing.AllocsPerRun(100, func() { sink.Emit(row) }); allocs != 0 {
			t.Fatalf("%s.Emit: %v allocs per row, want 0", name, allocs)
		}
	}
	if rows == 0 {
		t.Fatal("no row was routed")
	}
}
