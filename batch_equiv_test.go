package factorwindows

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/parallel"
	"factorwindows/internal/plan"
	"factorwindows/internal/reorder"
	"factorwindows/internal/server"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/workload"
)

// Batch-boundary equivalence: the batch-grouped ingest pipeline (slot
// pre-pass, run segmentation, scatter recycling, the reorder buffer's
// sorted fast path) must be invisible — identical streams driven
// through the batched and scalar (batch size 1) paths produce identical
// sorted results, for adversarial batch sizes, duplicate timestamps
// straddling batch edges, and interleaved Advance watermarks.
//
// Values are small integers, so every supported aggregate is exact in
// float64 regardless of fold order and equality can be literal. Each
// suite also runs the order-sensitive loads (equivLoads), where a fold
// order that depended on the batch split would change result bits.

// equivBatchSizes are the adversarial batch splits: scalar, tiny primes
// that cut through duplicate-timestamp runs, and one batch ≫ stream.
var equivBatchSizes = []int{1, 2, 3, 7, 1000}

// equivStream generates an in-order stream with heavy timestamp
// duplication (several events per tick, frequent repeats) so batch
// edges land inside same-time runs.
func equivStream(seed int64, n int) []stream.Event {
	r := rand.New(rand.NewSource(seed))
	events := make([]stream.Event, 0, n)
	tick := int64(0)
	for i := 0; i < n; i++ {
		if r.Intn(4) == 0 {
			tick += int64(r.Intn(3))
		}
		events = append(events, stream.Event{
			Time: tick, Key: uint64(r.Intn(5)), Value: float64(r.Intn(50)),
		})
	}
	return events
}

func equivPlan(t *testing.T, fn agg.Fn) *plan.Plan {
	t.Helper()
	return factoredPlan(t, window.MustSet(window.Tumbling(6), window.Tumbling(9), window.Hopping(12, 4)), fn)
}

func factoredPlan(t *testing.T, set *window.Set, fn agg.Fn) *plan.Plan {
	t.Helper()
	res, err := core.Optimize(set, fn, core.Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, fn, plan.Factored)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pushBatches drives events through process in batches of size batch,
// interleaving an Advance watermark at the configured stride (0 = no
// watermarks). Watermarks at already-passed times are semantically
// no-ops, so results must not depend on the interleaving.
func pushBatches(events []stream.Event, batch, advanceEvery int, process func([]stream.Event), advance func(int64)) {
	pushed := 0
	for off := 0; off < len(events); off += batch {
		end := off + batch
		if end > len(events) {
			end = len(events)
		}
		process(events[off:end])
		pushed = end
		if advanceEvery > 0 && pushed%advanceEvery < batch && pushed > 0 {
			advance(events[pushed-1].Time)
		}
	}
}

func requireSameResults(t *testing.T, label string, want, got []stream.Result) {
	t.Helper()
	stream.SortResults(want)
	stream.SortResults(got)
	if len(want) != len(got) {
		t.Fatalf("%s: result counts differ: want %d, got %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d differs:\nwant %v\ngot  %v", label, i, want[i], got[i])
		}
	}
}

// equivLoad is an order-sensitive input the batch suites also run: the
// distributed suites' float-SUM and dense-percentile shapes — nested
// T20/T40/T80 windows over workload.OrderSensitive values, the quantile
// load at ≥ 4·k values per key per T20 instance so every sketch
// compacts.
type equivLoad struct {
	name      string
	fn        agg.Fn
	param     float64
	aggregate string // the SQL aggregate, for the server suite
	keys      int
	perTick   int
}

var equivLoads = []equivLoad{
	{name: "float-sum", fn: agg.Sum, aggregate: "SUM(Value)", keys: 6, perTick: 7},
	{name: "dense-percentile", fn: agg.Percentile, param: 0.5, aggregate: "PERCENTILE(Value, 0.5)", keys: 8, perTick: 320},
}

// events is the load's 256-tick stream.
func (l equivLoad) events() []stream.Event {
	return workload.OrderSensitive(workload.StreamConfig{Events: 256 * l.perTick, Keys: l.keys, EventsPerTick: l.perTick, Seed: 17})
}

func (l equivLoad) plan(t *testing.T) *plan.Plan {
	t.Helper()
	p := factoredPlan(t, window.MustSet(window.Tumbling(20), window.Tumbling(40), window.Tumbling(80)), l.fn)
	p.Param = l.param
	return p
}

// equivSplitSeed draws the order-sensitive loads' batch splits.
const equivSplitSeed = 2718

// splitBatches cuts events into consecutive batches whose sizes rng
// draws: half scalar-sized (1–8 events, cutting inside same-tick runs),
// half up to 4,096.
func splitBatches(rng *rand.Rand, events []stream.Event) [][]stream.Event {
	var out [][]stream.Event
	for off := 0; off < len(events); {
		n := 1 + rng.Intn(8)
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(4096)
		}
		end := min(off+n, len(events))
		out = append(out, events[off:end])
		off = end
	}
	return out
}

// runBatches drives batches through process, advancing the watermark to
// each batch's last time when advance is set.
func runBatches(batches [][]stream.Event, process func([]stream.Event), advance func(int64)) {
	for _, b := range batches {
		process(b)
		if advance != nil {
			advance(b[len(b)-1].Time)
		}
	}
}

// TestBatchBoundaryEquivalenceEngine drives the engine with every batch
// size and watermark stride; batch size 1 is the scalar reference.
func TestBatchBoundaryEquivalenceEngine(t *testing.T) {
	for _, fn := range []agg.Fn{agg.Min, agg.Sum, agg.StdDev} {
		for seed := int64(1); seed <= 3; seed++ {
			events := equivStream(seed, 900)
			p := equivPlan(t, fn)
			var want []stream.Result
			for _, batch := range equivBatchSizes {
				for _, advanceEvery := range []int{0, 137} {
					sink := &stream.CollectingSink{}
					r, err := engine.New(p, sink)
					if err != nil {
						t.Fatal(err)
					}
					pushBatches(events, batch, advanceEvery, r.Process, r.Advance)
					r.Close()
					label := fmt.Sprintf("%v seed=%d batch=%d advance=%d", fn, seed, batch, advanceEvery)
					if want == nil {
						want = sink.Sorted()
						continue
					}
					requireSameResults(t, label, want, sink.Results)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(equivSplitSeed))
	for _, ld := range equivLoads {
		events, p := ld.events(), ld.plan(t)
		want := &stream.CollectingSink{}
		if _, err := engine.Run(p, events, want); err != nil {
			t.Fatal(err)
		}
		for trial, advance := range []bool{false, true} {
			sink := &stream.CollectingSink{}
			r, err := engine.New(p, sink)
			if err != nil {
				t.Fatal(err)
			}
			adv := r.Advance
			if !advance {
				adv = nil
			}
			runBatches(splitBatches(rng, events), r.Process, adv)
			r.Close()
			requireSameResults(t, fmt.Sprintf("%s split %d", ld.name, trial), want.Results, sink.Results)
		}
	}
}

// TestBatchBoundaryEquivalenceParallel checks the sharded runner's
// recycled scatter (including the single-shard staging path) across
// shard counts 1, 4 and 7, against the engine's scalar reference.
func TestBatchBoundaryEquivalenceParallel(t *testing.T) {
	for _, fn := range []agg.Fn{agg.Min, agg.Sum} {
		events := equivStream(11, 900)
		p := equivPlan(t, fn)

		want := &stream.CollectingSink{}
		ref, err := engine.New(p, want)
		if err != nil {
			t.Fatal(err)
		}
		pushBatches(events, 1, 0, ref.Process, ref.Advance)
		ref.Close()

		for _, shards := range []int{1, 4, 7} {
			for _, batch := range equivBatchSizes {
				for _, advanceEvery := range []int{0, 137} {
					sink := &stream.CollectingSink{}
					r, err := parallel.New(p, sink, shards)
					if err != nil {
						t.Fatal(err)
					}
					pushBatches(events, batch, advanceEvery, r.Process, r.Advance)
					r.Close()
					if err := r.Err(); err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%v shards=%d batch=%d advance=%d", fn, shards, batch, advanceEvery)
					requireSameResults(t, label, want.Results, sink.Results)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(equivSplitSeed + 1))
	for _, ld := range equivLoads {
		events, p := ld.events(), ld.plan(t)
		want := &stream.CollectingSink{}
		if _, err := engine.Run(p, events, want); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4, 7} {
			sink := &stream.CollectingSink{}
			r, err := parallel.New(p, sink, shards)
			if err != nil {
				t.Fatal(err)
			}
			runBatches(splitBatches(rng, events), r.Process, r.Advance)
			r.Close()
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, fmt.Sprintf("%s shards=%d", ld.name, shards), want.Results, sink.Results)
		}
	}
}

// TestBatchBoundaryEquivalenceReorder feeds a block-shuffled stream
// through the reorder buffer in adversarial batch splits: the sorted
// fast path (which in-order splits hit) and the heap path (which
// shuffled splits hit) must release streams yielding identical engine
// results.
func TestBatchBoundaryEquivalenceReorder(t *testing.T) {
	events := equivStream(23, 900)
	p := equivPlan(t, agg.Sum)

	want := &stream.CollectingSink{}
	ref, err := engine.New(p, want)
	if err != nil {
		t.Fatal(err)
	}
	ref.Process(events)
	ref.Close()

	r := rand.New(rand.NewSource(29))
	shuffled := append([]stream.Event(nil), events...)
	const block = 12
	for lo := 0; lo < len(shuffled); lo += block {
		hi := lo + block
		if hi > len(shuffled) {
			hi = len(shuffled)
		}
		r.Shuffle(hi-lo, func(i, j int) {
			shuffled[lo+i], shuffled[lo+j] = shuffled[lo+j], shuffled[lo+i]
		})
	}

	for _, input := range [][]stream.Event{events, shuffled} {
		for _, batch := range equivBatchSizes {
			sink := &stream.CollectingSink{}
			eng, err := engine.New(p, sink)
			if err != nil {
				t.Fatal(err)
			}
			// Bound 16 comfortably covers the 12-position block shuffle.
			buf, err := reorder.New(eng, 16, reorder.Drop, nil)
			if err != nil {
				t.Fatal(err)
			}
			pushBatches(input, batch, 0, buf.Push, func(int64) {})
			buf.Close()
			eng.Close()
			if buf.Late() != 0 {
				t.Fatalf("batch=%d: unexpected late events: %d", batch, buf.Late())
			}
			label := fmt.Sprintf("batch=%d shuffled=%v", batch, len(input) > 0 && &input[0] == &shuffled[0])
			requireSameResults(t, label, want.Results, sink.Results)
		}
	}
	// Order-sensitive loads, shuffled within whole ticks: the buffer must
	// release each tick's events in arrival order whatever the split, so
	// every split matches the engine fed the shuffled stream directly.
	rng := rand.New(rand.NewSource(equivSplitSeed + 2))
	for _, ld := range equivLoads {
		events, p := ld.events(), ld.plan(t)
		for lo := 0; lo < len(events); lo += 3 * ld.perTick {
			b := events[lo:min(lo+3*ld.perTick, len(events))]
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		}
		want := &stream.CollectingSink{}
		ref, err := engine.New(p, want)
		if err != nil {
			t.Fatal(err)
		}
		ordered := append([]stream.Event(nil), events...)
		slices.SortStableFunc(ordered, func(a, b stream.Event) int { return cmp.Compare(a.Time, b.Time) })
		ref.Process(ordered)
		ref.Close()
		for trial := 0; trial < 2; trial++ {
			sink := &stream.CollectingSink{}
			eng, err := engine.New(p, sink)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := reorder.New(eng, 4, reorder.Drop, nil)
			if err != nil {
				t.Fatal(err)
			}
			runBatches(splitBatches(rng, events), buf.Push, nil)
			buf.Close()
			eng.Close()
			if buf.Late() != 0 {
				t.Fatalf("%s: unexpected late events: %d", ld.name, buf.Late())
			}
			requireSameResults(t, fmt.Sprintf("%s split %d", ld.name, trial), want.Results, sink.Results)
		}
	}
}

// TestBatchBoundaryEquivalenceServer ingests one stream into the full
// serving stack (reorder → sharded engines → rings) under every batch
// split and asserts the delivered rows are identical.
func TestBatchBoundaryEquivalenceServer(t *testing.T) {
	events := equivStream(31, 600)
	var want []stream.Result
	for _, batch := range equivBatchSizes {
		srv := server.New(server.Config{Shards: 3, Factors: true, ReorderBound: 8})
		if _, err := srv.Register("q1", "SELECT Key, SUM(Value) FROM s GROUP BY Key, Windows(TumblingWindow(tick, 6))"); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Register("q2", "SELECT Key, SUM(Value) FROM s GROUP BY Key, Windows(HoppingWindow(tick, 12, 4))"); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(events); off += batch {
			end := off + batch
			if end > len(events) {
				end = len(events)
			}
			if _, err := srv.Ingest(events[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		var got []stream.Result
		for _, id := range []string{"q1", "q2"} {
			rows, missed, err := srv.Results(id, -1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if missed != 0 {
				t.Fatalf("batch=%d %s: %d rows evicted; raise ResultBuffer", batch, id, missed)
			}
			for _, row := range rows {
				got = append(got, stream.Result{
					W:     window.Window{Range: row.Range, Slide: row.Slide},
					Start: row.Start, End: row.End, Key: row.Key, Value: row.Value,
				})
			}
		}
		srv.Close()
		if want == nil {
			stream.SortResults(got)
			want = got
			continue
		}
		requireSameResults(t, fmt.Sprintf("batch=%d", batch), want, got)
	}
	rng := rand.New(rand.NewSource(equivSplitSeed + 3))
	for _, ld := range equivLoads {
		events := ld.events()
		want := &stream.CollectingSink{}
		if _, err := engine.Run(ld.plan(t), events, want); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 2; trial++ {
			srv := server.New(server.Config{Shards: 3, Factors: true, ReorderBound: 8, ResultBuffer: 1 << 16})
			for id, q := range map[string]string{
				"q1": "SELECT Key, " + ld.aggregate + " FROM s GROUP BY Key, Windows(TumblingWindow(tick, 20), TumblingWindow(tick, 40))",
				"q2": "SELECT Key, " + ld.aggregate + " FROM s GROUP BY Key, Windows(TumblingWindow(tick, 80))",
			} {
				if _, err := srv.Register(id, q); err != nil {
					t.Fatal(err)
				}
			}
			// A far-future sentinel fires every instance, as the engine's
			// flush does.
			batches := append(splitBatches(rng, events), []stream.Event{{Time: 1 << 20}})
			runBatches(batches, func(b []stream.Event) {
				if _, err := srv.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}, nil)
			got := serverResults(t, srv, "q1", "q2")
			srv.Close()
			requireSameResults(t, fmt.Sprintf("%s split %d", ld.name, trial), want.Results, got)
		}
	}
}

// serverResults reads every buffered row of the queries back as results.
func serverResults(t *testing.T, srv *server.Server, ids ...string) []stream.Result {
	t.Helper()
	var got []stream.Result
	for _, id := range ids {
		rows, missed, err := srv.Results(id, -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if missed != 0 {
			t.Fatalf("%s: %d rows evicted; raise ResultBuffer", id, missed)
		}
		for _, row := range rows {
			got = append(got, stream.Result{
				W:     window.Window{Range: row.Range, Slide: row.Slide},
				Start: row.Start, End: row.End, Key: row.Key, Value: row.Value,
			})
		}
	}
	return got
}
