package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// directEval is the test oracle: it evaluates fn over every instance of
// every window by scanning all events, with no sharing at all. Each
// (instance, key) folds through the exported Cell kernels; MEDIAN keeps
// its raw values and takes the middle of the sorted slice.
func directEval(ws []window.Window, fn agg.Fn, events []stream.Event) []stream.Result {
	var out []stream.Result
	if len(events) == 0 {
		return out
	}
	type state struct {
		c    agg.Cell
		vals []float64
	}
	final := func(st *state) float64 {
		if fn != agg.Median {
			return agg.CellFinal(fn, &st.c)
		}
		vals := slices.Sorted(slices.Values(st.vals))
		n := len(vals)
		if n%2 == 1 {
			return vals[n/2]
		}
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	maxT := events[len(events)-1].Time
	for _, w := range ws {
		for m := int64(0); m*w.Slide <= maxT; m++ {
			iv := w.Instance(m)
			states := map[uint64]*state{}
			for _, e := range events {
				if iv.Contains(e.Time) {
					st := states[e.Key]
					if st == nil {
						st = &state{}
						states[e.Key] = st
					}
					if fn == agg.Median {
						st.vals = append(st.vals, e.Value)
					} else {
						agg.CellAdd(fn, &st.c, e.Value)
					}
				}
			}
			for key, st := range states {
				out = append(out, stream.Result{
					W: w, Start: iv.Start, End: iv.End, Key: key, Value: final(st),
				})
			}
		}
	}
	stream.SortResults(out)
	return out
}

// steadyStream generates one event per key per tick with small integer
// values, so SUM/AVG/STDEV merges are exact in float64.
func steadyStream(ticks int64, keys int, r *rand.Rand) []stream.Event {
	events := make([]stream.Event, 0, ticks*int64(keys))
	for t := int64(0); t < ticks; t++ {
		for k := 0; k < keys; k++ {
			events = append(events, stream.Event{
				Time: t, Key: uint64(k), Value: float64(r.Intn(1000)),
			})
		}
	}
	return events
}

func sameResults(t *testing.T, label string, got, want []stream.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.W != w.W || g.Start != w.Start || g.End != w.End || g.Key != w.Key {
			t.Fatalf("%s: row %d is %v, want %v", label, i, g, w)
		}
		if g.Value != w.Value && !(math.IsNaN(g.Value) && math.IsNaN(w.Value)) {
			if math.Abs(g.Value-w.Value) > 1e-9*math.Max(1, math.Abs(w.Value)) {
				t.Fatalf("%s: row %d value %v, want %v", label, i, g.Value, w.Value)
			}
		}
	}
}

func runPlan(t *testing.T, p *plan.Plan, events []stream.Event) []stream.Result {
	t.Helper()
	sink := &stream.CollectingSink{}
	if _, err := Run(p, events, sink); err != nil {
		t.Fatal(err)
	}
	return sink.Sorted()
}

func TestOriginalPlanMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ws := []window.Window{window.Tumbling(4), window.Hopping(6, 2), window.Hopping(8, 4)}
	set := window.MustSet(ws...)
	events := steadyStream(50, 3, r)
	for _, fn := range agg.Functions() {
		if agg.SketchBacked(fn) {
			continue // approximate; see TestOriginalPlanSketchMatchesReference
		}
		p, err := plan.NewOriginal(set, fn)
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, p, events)
		want := directEval(ws, fn, events)
		sameResults(t, fn.String(), got, want)
	}
}

// directSketchEval is the sketch oracle: one hand-driven reference
// sketch per (window instance, key), fed the instance's events in
// stream order. An original (sharing-free) plan must match it
// bit-for-bit — the engine folds each instance's events in the same
// order into an identically-configured sketch.
func directSketchEval(ws []window.Window, fn agg.Fn, param float64, events []stream.Event) []stream.Result {
	var out []stream.Result
	if len(events) == 0 {
		return out
	}
	maxT := events[len(events)-1].Time
	for _, w := range ws {
		for m := int64(0); m*w.Slide <= maxT; m++ {
			iv := w.Instance(m)
			stores := map[uint64]*agg.Store{}
			rows := map[uint64]int32{}
			for _, e := range events {
				if !iv.Contains(e.Time) {
					continue
				}
				st := stores[e.Key]
				if st == nil {
					st = agg.NewStore(fn)
					st.SetParam(param)
					row, _ := st.Alloc(1)
					stores[e.Key], rows[e.Key] = st, row
				}
				st.AddAt(rows[e.Key], e.Value)
			}
			for key, st := range stores {
				out = append(out, stream.Result{
					W: w, Start: iv.Start, End: iv.End, Key: key, Value: st.FinalizeAt(rows[key]),
				})
			}
		}
	}
	stream.SortResults(out)
	return out
}

func TestOriginalPlanSketchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	ws := []window.Window{window.Tumbling(4), window.Hopping(6, 2)}
	set := window.MustSet(ws...)
	events := steadyStream(40, 3, r)
	for _, fn := range agg.SketchFns() {
		param := agg.DefaultParam(fn)
		if fn == agg.Percentile {
			param = 0.9
		}
		p, err := plan.NewOriginal(set, fn)
		if err != nil {
			t.Fatal(err)
		}
		p.Param = param
		got := runPlan(t, p, events)
		want := directSketchEval(ws, fn, param, events)
		sameResults(t, fn.String(), got, want)
	}
}

func TestRewrittenPlansMatchOriginal(t *testing.T) {
	// The master equivalence property: for random window sets and every
	// shareable aggregate, rewritten and factored plans produce exactly
	// the rows of the original plan. PERCENTILE and DISTINCT ride along:
	// at these volumes no quantile sketch compacts (so it answers exactly)
	// and HLL merges are lossless, so sharing must not move a bit.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		set := &window.Set{}
		n := r.Intn(4) + 2
		for set.Len() < n {
			s := int64(r.Intn(5) + 1)
			k := int64(1)
			if r.Intn(2) == 0 {
				k = int64(r.Intn(3) + 1)
			}
			w := window.Window{Range: s * k, Slide: s}
			if !set.Contains(w) {
				_ = set.Add(w)
			}
		}
		events := steadyStream(int64(r.Intn(60)+30), r.Intn(3)+1, r)
		for _, fn := range append(agg.ShareableFns(), agg.Percentile, agg.Distinct) {
			orig, err := plan.NewOriginal(set, fn)
			if err != nil {
				t.Fatal(err)
			}
			want := runPlan(t, orig, events)
			for _, factors := range []bool{false, true} {
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
					t.Fatalf("set %v fn %v: %v", set, fn, err)
				}
				got := runPlan(t, p, events)
				sameResults(t, set.String()+" "+fn.String(), got, want)
			}
		}
	}
}

func TestPaperExample1Shape(t *testing.T) {
	// The intro query: MIN over tumbling 20/30/40-minute windows. The
	// factored plan must contain the W(10,10) factor and produce the
	// same results as the original.
	set := window.MustSet(window.Tumbling(20), window.Tumbling(30), window.Tumbling(40))
	res, err := core.Optimize(set, agg.Min, core.Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, agg.Min, plan.Factored)
	if err != nil {
		t.Fatal(err)
	}
	if p.CountFactors() != 1 {
		t.Fatalf("factors = %d, want 1\n%s", p.CountFactors(), p)
	}
	r := rand.New(rand.NewSource(4))
	events := steadyStream(240, 4, r)
	orig, _ := plan.NewOriginal(set, agg.Min)
	sameResults(t, "example1", runPlan(t, p, events), runPlan(t, orig, events))
}

func TestSharedPlanDoesLessWork(t *testing.T) {
	// On the Example 6 window set over a full period, the rewritten
	// plan's total input count must be well below the original's — for
	// SUM and equally for the sketch-backed functions, whose merges are
	// the state updates being saved.
	set := window.MustSet(window.Tumbling(10), window.Tumbling(20), window.Tumbling(30), window.Tumbling(40))
	r := rand.New(rand.NewSource(5))
	events := steadyStream(240, 1, r)

	for _, fn := range []agg.Fn{agg.Sum, agg.Percentile, agg.Distinct} {
		orig, _ := plan.NewOriginal(set, fn)
		sink1 := &stream.CountingSink{}
		r1, err := Run(orig, events, sink1)
		if err != nil {
			t.Fatal(err)
		}

		res, err := core.Optimize(set, fn, core.Options{Factors: false})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.FromGraph(res.Graph, fn, plan.Rewritten)
		if err != nil {
			t.Fatal(err)
		}
		sink2 := &stream.CountingSink{}
		r2, err := Run(p, events, sink2)
		if err != nil {
			t.Fatal(err)
		}

		if r2.TotalInputs() >= r1.TotalInputs() {
			t.Fatalf("%v: rewritten inputs %d, original %d", fn, r2.TotalInputs(), r1.TotalInputs())
		}
		// Cost model predicts 150/480 ≈ 0.31 of the work; allow slack for
		// boundary effects but require a clear reduction.
		if ratio := float64(r2.TotalInputs()) / float64(r1.TotalInputs()); ratio > 0.5 {
			t.Fatalf("%v: work ratio %.2f, expected < 0.5", fn, ratio)
		}
		if ratio := float64(r2.TotalUpdates()) / float64(r1.TotalUpdates()); ratio > 0.5 {
			t.Fatalf("%v: update ratio %.2f, expected < 0.5", fn, ratio)
		}
		if sink1.N != sink2.N {
			t.Fatalf("%v: result counts differ: %d vs %d", fn, sink1.N, sink2.N)
		}
	}
}

func TestEmptyWindowsNotEmitted(t *testing.T) {
	set := window.MustSet(window.Tumbling(10))
	p, _ := plan.NewOriginal(set, agg.Count)
	// Two events far apart: instances in between have no events.
	events := []stream.Event{{Time: 0, Key: 1, Value: 1}, {Time: 95, Key: 1, Value: 1}}
	sink := &stream.CollectingSink{}
	if _, err := Run(p, events, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != 2 {
		t.Fatalf("results = %v", sink.Results)
	}
}

func TestHoppingAssignsToAllInstances(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Hopping(10, 2)), agg.Count)
	events := []stream.Event{{Time: 9, Key: 1, Value: 1}, {Time: 30, Key: 1, Value: 1}}
	sink := &stream.CollectingSink{}
	if _, err := Run(p, events, sink); err != nil {
		t.Fatal(err)
	}
	// Event at t=9 belongs to instances starting 0,2,4,6,8 → 5 results
	// for the first event; t=30 → starts 22..30 → 5 more.
	if len(sink.Results) != 10 {
		t.Fatalf("got %d results: %v", len(sink.Results), sink.Results)
	}
}

func TestRunnerLifecycle(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(5)), agg.Min)
	r, err := New(p, &stream.CountingSink{})
	if err != nil {
		t.Fatal(err)
	}
	r.Process([]stream.Event{{Time: 0, Key: 0, Value: 1}})
	r.Close()
	r.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Process after Close must panic")
		}
	}()
	r.Process([]stream.Event{{Time: 9, Key: 0, Value: 1}})
}

func TestNewRejectsNilSink(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(5)), agg.Min)
	if _, err := New(p, nil); err == nil {
		t.Fatal("nil sink must fail")
	}
}

func TestBatchBoundariesInvisible(t *testing.T) {
	// Splitting the stream across Process calls must not change results.
	set := window.MustSet(window.Tumbling(4), window.Hopping(8, 2))
	r := rand.New(rand.NewSource(6))
	events := steadyStream(40, 2, r)
	for _, fn := range []agg.Fn{agg.Sum, agg.Percentile, agg.Distinct} {
		p, _ := plan.NewOriginal(set, fn)
		whole := &stream.CollectingSink{}
		if _, err := Run(p, events, whole); err != nil {
			t.Fatal(err)
		}

		split := &stream.CollectingSink{}
		r2, err := New(p, split)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(events); i += 7 {
			r2.Process(events[i:min(i+7, len(events))])
		}
		r2.Close()
		sameResults(t, "batching "+fn.String(), split.Sorted(), whole.Sorted())
	}
}

func TestStatsCounters(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(10)), agg.Min)
	r, _ := New(p, &stream.CountingSink{})
	r.Process(steadyStream(20, 1, rand.New(rand.NewSource(7))))
	r.Close()
	st := r.Stats()
	if len(st) != 1 || st[0].Inputs != 20 || st[0].Fired != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if r.Events() != 20 {
		t.Fatalf("events = %d", r.Events())
	}
}

func TestDeepChainPlan(t *testing.T) {
	// A 4-level sharing chain: W(2) <- W(4) <- W(8) <- W(16); results
	// must match the oracle for MIN and SUM.
	set := window.MustSet(window.Tumbling(2), window.Tumbling(4), window.Tumbling(8), window.Tumbling(16))
	r := rand.New(rand.NewSource(8))
	events := steadyStream(64, 2, r)
	for _, fn := range []agg.Fn{agg.Min, agg.Sum, agg.StdDev} {
		res, err := core.Optimize(set, fn, core.Options{Factors: false})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.FromGraph(res.Graph, fn, plan.Rewritten)
		if err != nil {
			t.Fatal(err)
		}
		if p.Depth() != 4 {
			t.Fatalf("depth = %d, want 4\n%s", p.Depth(), p)
		}
		want := directEval(set.Windows(), fn, events)
		sameResults(t, fn.String(), runPlan(t, p, events), want)
	}
}

func TestTumblingChildOfHoppingParent(t *testing.T) {
	// Covered-by chain where a hopping parent's intervals straddle the
	// tumbling child's boundaries: the straddlers must be dropped (their
	// covering-set complement still reconstructs every instance) and
	// results must match the oracle. This exercises the k=1 sub-aggregate
	// fast path, including its roll-then-drop corner.
	parent := window.Hopping(3, 1)
	child := window.Tumbling(4)
	set := window.MustSet(parent, child)
	r := rand.New(rand.NewSource(99))
	events := steadyStream(97, 3, r)
	for _, fn := range []agg.Fn{agg.Min, agg.Max} {
		res, err := core.Optimize(set, fn, core.Options{Factors: false})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.FromGraph(res.Graph, fn, plan.Rewritten)
		if err != nil {
			t.Fatal(err)
		}
		// The optimizer must have chosen the sharing edge; otherwise the
		// test exercises nothing.
		shared := false
		for _, op := range p.Operators() {
			if op.W == child && op.Parent != nil && op.Parent.W == parent {
				shared = true
			}
		}
		if !shared {
			t.Fatalf("expected %v to read from %v:\n%s", child, parent, p)
		}
		want := directEval(set.Windows(), fn, events)
		sameResults(t, fn.String(), runPlan(t, p, events), want)
	}
}

func TestDeepHoppingChain(t *testing.T) {
	// Hopping windows sharing through other hopping windows under
	// covered-by semantics, with the general (k>1) sub-aggregate path.
	set := window.MustSet(window.Hopping(4, 2), window.Hopping(8, 2), window.Hopping(16, 4))
	r := rand.New(rand.NewSource(123))
	events := steadyStream(120, 2, r)
	res, err := core.Optimize(set, agg.Min, core.Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, agg.Min, plan.Factored)
	if err != nil {
		t.Fatal(err)
	}
	want := directEval(set.Windows(), agg.Min, events)
	sameResults(t, "deep hopping", runPlan(t, p, events), want)
}

func TestEmptyRun(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(5)), agg.Min)
	sink := &stream.CollectingSink{}
	r, err := Run(p, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != 0 || r.Events() != 0 {
		t.Fatal("empty stream must yield nothing")
	}
}

func TestLargeTimestamps(t *testing.T) {
	// Timestamps deep into the stream (large instance indexes) must not
	// disturb instance bookkeeping.
	set := window.MustSet(window.Tumbling(7), window.Hopping(14, 7))
	base := int64(7) << 37 // aligned to both slides, ~10^12
	events := []stream.Event{
		{Time: base, Key: 1, Value: 3},
		{Time: base + 5, Key: 1, Value: 9},
		{Time: base + 13, Key: 1, Value: 4},
	}
	p, _ := plan.NewOriginal(set, agg.Max)
	sink := &stream.CollectingSink{}
	if _, err := Run(p, events, sink); err != nil {
		t.Fatal(err)
	}
	for _, r := range sink.Results {
		if !r.W.Instance(0).Contains(0) && r.Start < base-r.W.Range {
			t.Fatalf("implausible instance %v", r)
		}
	}
	if len(sink.Results) == 0 {
		t.Fatal("no results")
	}
	// directEval enumerates instances from m=0, infeasible at ~10^12;
	// compare against a time-shifted copy instead.
	shifted := make([]stream.Event, len(events))
	for i, e := range events {
		shifted[i] = stream.Event{Time: e.Time - base, Key: e.Key, Value: e.Value}
	}
	p2, _ := plan.NewOriginal(set, agg.Max)
	sink2 := &stream.CollectingSink{}
	if _, err := Run(p2, shifted, sink2); err != nil {
		t.Fatal(err)
	}
	// With base a multiple of both slides, results must be identical up
	// to the time shift.
	if base%7 != 0 {
		t.Skip("base not aligned; comparison not meaningful")
	}
	// Instances that begin before the base (e.g. hopping [base-7, base+7))
	// have no shifted analogue: the shifted run cannot emit intervals with
	// negative starts. Compare only instances starting at or after base.
	var a, b []stream.Result
	for _, r := range sink.Sorted() {
		if r.Start >= base {
			a = append(a, r)
		}
	}
	for _, r := range sink2.Sorted() {
		if r.Start >= 0 {
			b = append(b, r)
		}
	}
	if len(a) != len(b) {
		t.Fatalf("row counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Value != b[i].Value || a[i].Start-base != b[i].Start {
			t.Fatalf("row %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSingleEventAllAggregates(t *testing.T) {
	set := window.MustSet(window.Tumbling(10))
	for _, fn := range agg.Functions() {
		p, _ := plan.NewOriginal(set, fn)
		sink := &stream.CollectingSink{}
		if _, err := Run(p, []stream.Event{{Time: 3, Key: 7, Value: 5}}, sink); err != nil {
			t.Fatal(err)
		}
		if len(sink.Results) != 1 {
			t.Fatalf("%v: results = %v", fn, sink.Results)
		}
		want := 5.0
		switch fn {
		case agg.Count:
			want = 1
		case agg.StdDev:
			want = 0
		case agg.Distinct:
			// One distinct value; the HLL estimate carries sub-percent bias.
			if got := sink.Results[0].Value; math.Abs(got-1) > 0.01 {
				t.Fatalf("%v = %v, want ≈1", fn, got)
			}
			continue
		}
		if sink.Results[0].Value != want {
			t.Fatalf("%v = %v, want %v", fn, sink.Results[0].Value, want)
		}
	}
}
