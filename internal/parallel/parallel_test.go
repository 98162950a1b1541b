package parallel

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

func testPlan(t *testing.T, fn agg.Fn, factors bool) *plan.Plan {
	t.Helper()
	set := window.MustSet(window.Tumbling(10), window.Tumbling(20), window.Hopping(40, 20))
	if agg.SemanticsOf(fn) == agg.NoSharing {
		p, err := plan.NewOriginal(set, fn)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	res, err := core.Optimize(set, fn, core.Options{Factors: factors})
	if err != nil {
		t.Fatal(err)
	}
	kind := plan.Rewritten
	if factors {
		kind = plan.Factored
	}
	p, err := plan.FromGraph(res.Graph, fn, kind)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomEvents(r *rand.Rand, n, keys int) []stream.Event {
	events := make([]stream.Event, 0, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(r.Intn(2))
		events = append(events, stream.Event{
			Time: t, Key: uint64(r.Intn(keys)), Value: float64(r.Intn(1000)),
		})
	}
	return events
}

func assertSameResults(t *testing.T, label string, got, want []stream.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.W != w.W || g.Start != w.Start || g.End != w.End || g.Key != w.Key {
			t.Fatalf("%s: row %d is %+v, want %+v", label, i, g, w)
		}
		if g.Value != w.Value && !(math.IsNaN(g.Value) && math.IsNaN(w.Value)) {
			t.Fatalf("%s: row %d value %v, want %v", label, i, g.Value, w.Value)
		}
	}
}

func TestMatchesSingleCore(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	events := randomEvents(r, 20_000, 64)
	for _, fn := range agg.Functions() {
		for _, shards := range []int{1, 2, 3, 8} {
			p := testPlan(t, fn, true)

			single := &stream.CollectingSink{}
			if _, err := engine.Run(p, events, single); err != nil {
				t.Fatal(err)
			}
			multi := &stream.CollectingSink{}
			if _, err := Run(p, events, multi, shards); err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fn.String(), multi.Sorted(), single.Sorted())
		}
	}
}

func TestBatchedFeeding(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	events := randomEvents(r, 10_000, 16)
	p := testPlan(t, agg.Sum, false)

	whole := &stream.CollectingSink{}
	if _, err := Run(p, events, whole, 4); err != nil {
		t.Fatal(err)
	}

	batched := &stream.CollectingSink{}
	run, err := New(p, batched, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(events); i += 777 {
		end := i + 777
		if end > len(events) {
			end = len(events)
		}
		run.Process(events[i:end])
	}
	run.Close()
	assertSameResults(t, "batched", batched.Sorted(), whole.Sorted())
}

func TestInputNotRetained(t *testing.T) {
	// Process must copy or re-slice; mutating the caller's batch after
	// Process returns must not corrupt results.
	p := testPlan(t, agg.Max, false)
	events := []stream.Event{
		{Time: 0, Key: 1, Value: 5},
		{Time: 1, Key: 2, Value: 7},
		{Time: 5, Key: 1, Value: 3},
	}
	sink := &stream.CollectingSink{}
	run, err := New(p, sink, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := append([]stream.Event(nil), events...)
	run.Process(batch)
	for i := range batch {
		batch[i].Value = -999 // caller reuses its buffer
	}
	run.Process([]stream.Event{{Time: 50, Key: 3, Value: 1}})
	run.Close()

	want := &stream.CollectingSink{}
	all := append(append([]stream.Event(nil), events...), stream.Event{Time: 50, Key: 3, Value: 1})
	if _, err := engine.Run(p, all, want); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "not-retained", sink.Sorted(), want.Sorted())
}

func TestDefaultShards(t *testing.T) {
	p := testPlan(t, agg.Min, false)
	run, err := New(p, &stream.CountingSink{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Shards() < 1 {
		t.Errorf("default shards = %d", run.Shards())
	}
	run.Close()
}

func TestValidation(t *testing.T) {
	p := testPlan(t, agg.Min, false)
	if _, err := New(p, nil, 2); err == nil {
		t.Error("nil sink should fail")
	}
	if _, err := New(&plan.Plan{}, &stream.CountingSink{}, 2); err == nil {
		t.Error("invalid plan should fail")
	}
}

func TestProcessAfterClosePanics(t *testing.T) {
	p := testPlan(t, agg.Min, false)
	run, err := New(p, &stream.CountingSink{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	run.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("Process after Close should panic")
		}
	}()
	run.Process([]stream.Event{{Time: 0, Key: 1, Value: 1}})
}

func TestWorkMatchesSingleCore(t *testing.T) {
	// Sharding must not change the total cost-model work: the same events
	// hit the same operators, just on different shards.
	r := rand.New(rand.NewSource(3))
	events := randomEvents(r, 30_000, 32)
	p := testPlan(t, agg.Sum, true)

	er, err := engine.Run(p, events, &stream.CountingSink{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Run(p, events, &stream.CountingSink{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pr.TotalUpdates() != er.TotalUpdates() {
		t.Errorf("parallel updates %d != single-core %d", pr.TotalUpdates(), er.TotalUpdates())
	}
	if pr.Events() != int64(len(events)) {
		t.Errorf("events %d, want %d", pr.Events(), len(events))
	}
}

// BenchmarkShardScaling measures the shard tier in the server's shape:
// ordered drain into a run sink, 8,192-event batches, each followed by
// the release watermark and a Barrier, over 1, 2, 4 and 8 shards. It
// reports Mevents/s.
func BenchmarkShardScaling(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	events := randomEvents(r, 500_000, 256)
	set := window.MustSet(window.Tumbling(10), window.Tumbling(20), window.Tumbling(40), window.Tumbling(80))
	res, err := core.Optimize(set, agg.Min, core.Options{Factors: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, agg.Min, plan.Factored)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 8192
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(shards), func(b *testing.B) {
			for range b.N {
				runner, err := New(p, &stream.CountingSink{}, shards)
				if err != nil {
					b.Fatal(err)
				}
				runner.SetOrderedDrain(true)
				for off := 0; off < len(events); off += batch {
					part := events[off:min(off+batch, len(events))]
					runner.Process(part)
					runner.Advance(part[len(part)-1].Time)
					runner.Barrier()
				}
				runner.Close()
			}
			b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

// TestOrderedDrainDeterministic pins SetOrderedDrain's contract: with a
// fixed batch cadence and a barrier per batch, the sink sees one exact
// result sequence — same rows, same order — on every run. The default
// mode only promises the multiset (shards race to the shared sink), so
// the unsorted comparison here is specifically what ordered mode adds.
// The server's cross-codec byte-identical streams stand on this.
func TestOrderedDrainDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	events := randomEvents(r, 20_000, 64)
	p := testPlan(t, agg.Sum, true)

	run := func() []stream.Result {
		sink := &stream.CollectingSink{}
		runner, err := New(p, sink, 4)
		if err != nil {
			t.Fatal(err)
		}
		runner.SetOrderedDrain(true)
		const batch = 512
		for off := 0; off < len(events); off += batch {
			end := off + batch
			if end > len(events) {
				end = len(events)
			}
			runner.Process(events[off:end])
			runner.Barrier()
		}
		runner.Close()
		return sink.Results
	}

	want := run()
	if len(want) == 0 {
		t.Fatal("workload produced no results")
	}
	for i := 0; i < 3; i++ {
		assertSameResults(t, "ordered rerun", run(), want)
	}

	// Ordered draining must change only the order: the multiset still
	// matches the default concurrent-flush mode.
	free := &stream.CollectingSink{}
	if _, err := Run(p, events, free, 4); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "vs default mode", sortedCopy(want), free.Sorted())
}

func sortedCopy(rs []stream.Result) []stream.Result {
	c := stream.CollectingSink{Results: append([]stream.Result(nil), rs...)}
	return c.Sorted()
}
