package factorwindows

import (
	"bytes"
	"slices"
	"testing"
)

func TestRunSlidingMatchesOriginal(t *testing.T) {
	set, _ := NewWindowSet(Hopping(12, 4), Tumbling(6))
	events := SyntheticStream(StreamConfig{Events: 20_000, Keys: 2, EventsPerTick: 2, Seed: 9})
	a, b := &CollectingSink{}, &CollectingSink{}
	if err := RunSliding(set, Min, events, a); err != nil {
		t.Fatal(err)
	}
	orig, _ := OriginalPlan(set, Min)
	if err := Run(orig, events, b); err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Sorted(), b.Sorted()
	if len(ra) != len(rb) {
		t.Fatalf("rows: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("row %d: %v vs %v", i, ra[i], rb[i])
		}
	}
}

func TestReorderBufferIntegration(t *testing.T) {
	set, _ := NewWindowSet(Tumbling(10))
	p, _ := OriginalPlan(set, Sum)
	sink := &CollectingSink{}
	r, err := NewRunner(p, sink)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := NewReorderBuffer(r, 5, DropLate)
	if err != nil {
		t.Fatal(err)
	}
	buf.Push([]Event{{Time: 2, Key: 1, Value: 1}, {Time: 0, Key: 1, Value: 2}, {Time: 4, Key: 1, Value: 4}})
	buf.Close()
	r.Close()
	if len(sink.Results) != 1 || sink.Results[0].Value != 7 {
		t.Fatalf("results = %v", sink.Results)
	}
	if buf.Late() != 0 {
		t.Fatalf("late = %d", buf.Late())
	}
}

func TestSnapshotRestoreIntegration(t *testing.T) {
	set, _ := NewWindowSet(Tumbling(20), Tumbling(40))
	o, err := Optimize(set, Min, Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	events := SyntheticStream(StreamConfig{Events: 4000, Keys: 2, EventsPerTick: 2, Seed: 10})

	whole := &CollectingSink{}
	if err := Run(o.Plan, events, whole); err != nil {
		t.Fatal(err)
	}

	split := &CollectingSink{}
	r1, err := NewRunner(o.Plan, split)
	if err != nil {
		t.Fatal(err)
	}
	r1.Process(events[:1777])
	snap, err := Snapshot(r1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(o.Plan, split, snap)
	if err != nil {
		t.Fatal(err)
	}
	r2.Process(events[1777:])
	r2.Close()

	a, b := split.Sorted(), whole.Sorted()
	if len(a) != len(b) {
		t.Fatalf("rows: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOptimizeAllIntegration(t *testing.T) {
	qs := []MultiQuery{
		{ID: "a", Windows: []Window{Tumbling(20), Tumbling(40)}},
		{ID: "b", Windows: []Window{Tumbling(30)}},
	}
	mp, err := OptimizeAll(qs, Min, Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	events := SyntheticStream(StreamConfig{Events: 2000, Keys: 1, EventsPerTick: 2, Seed: 11})
	got := map[string]int{}
	if err := mp.Run(events, func(rr RoutedResult) {
		for _, id := range rr.QueryIDs {
			got[id]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got["a"] == 0 || got["b"] == 0 {
		t.Fatalf("routing counts = %v", got)
	}
}

func TestStreamIOIntegration(t *testing.T) {
	events := SyntheticStream(StreamConfig{Events: 50, Keys: 2, EventsPerTick: 2, Seed: 12})
	var buf bytes.Buffer
	if err := WriteEventsCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEventsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("rows: %d vs %d", len(back), len(events))
	}
	if err := ValidateEvents(back); err != nil {
		t.Fatal(err)
	}
	var rbuf bytes.Buffer
	if err := WriteResultsCSV(&rbuf, []Result{{W: Tumbling(5), Start: 0, End: 5, Key: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if rbuf.Len() == 0 {
		t.Fatal("empty results CSV")
	}
}

func TestRateMonitorIntegration(t *testing.T) {
	set, _ := NewWindowSet(Tumbling(20), Tumbling(30), Tumbling(40))
	// Deploy without factor windows; at a high observed rate the monitor
	// must advise switching to the factor-window plan.
	deployed, err := Optimize(set, Sum, Options{Factors: false})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRateMonitor(set, Sum, Options{Factors: true}, deployed, 100)
	if err != nil {
		t.Fatal(err)
	}
	events := SyntheticStream(StreamConfig{Events: 4000, Keys: 4, EventsPerTick: 8, Seed: 13})
	var last *ReoptimizeAdvice
	for i := 0; i < len(events); i += 512 {
		end := i + 512
		if end > len(events) {
			end = len(events)
		}
		adv, err := m.Feed(events[i:end])
		if err != nil {
			t.Fatal(err)
		}
		if adv != nil {
			last = adv
		}
	}
	if last == nil {
		t.Fatal("monitor never evaluated")
	}
	if !last.Reoptimize || last.Overpay() <= 1 {
		t.Fatalf("expected re-optimization advice, got %+v", last)
	}
}

// TestRunQuantilePhi pins the quantile the facade answers against the
// exact rank definition (value at rank ⌈φ·n⌉): 50 values, well below the
// sketch size, so every answer is exact.
func TestRunQuantilePhi(t *testing.T) {
	set, _ := NewWindowSet(Tumbling(50))
	var events []Event
	for i := 0; i < 50; i++ {
		events = append(events, Event{Time: int64(i), Key: 1, Value: float64(i + 1)})
	}
	for _, tc := range []struct{ phi, want float64 }{
		{0, 25}, {0.1, 5}, {0.5, 25}, {0.9, 45}, {1.0, 50},
	} {
		sink := &CollectingSink{}
		if _, err := RunQuantile(set, QuantileOptions{Phi: tc.phi}, events, sink); err != nil {
			t.Fatal(err)
		}
		if len(sink.Results) != 1 || sink.Results[0].Value != tc.want {
			t.Errorf("phi=%v: got %v, want one row of %v", tc.phi, sink.Results, tc.want)
		}
	}
}

func TestSketchFacadeValidation(t *testing.T) {
	set, _ := NewWindowSet(Tumbling(10))
	for _, phi := range []float64{2, -0.5} {
		if _, err := NewQuantileRunner(set, QuantileOptions{Phi: phi}, &CollectingSink{}); err == nil {
			t.Errorf("phi %v should fail", phi)
		}
	}
	if _, err := NewQuantileRunner(set, QuantileOptions{}, nil); err == nil {
		t.Error("nil sink should fail")
	}
	if _, err := NewQuantileRunner(nil, QuantileOptions{}, &CollectingSink{}); err == nil {
		t.Error("nil set should fail")
	}
	if _, err := NewDistinctRunner(set, DistinctOptions{}, nil); err == nil {
		t.Error("nil sink should fail")
	}
	if _, err := NewDistinctRunner(nil, DistinctOptions{}, &CollectingSink{}); err == nil {
		t.Error("nil set should fail")
	}
}

// TestSketchFacadeSnapshotRestore drives the Restore…Runner facades on
// Example 7's set (so a factor window's sketches cross the snapshot): a
// run cut mid-stream and resumed finishes like the uninterrupted one, a
// resumed quantile may ask for another φ (it is not state), and a
// snapshot of another window set or Factors choice is refused.
func TestSketchFacadeSnapshotRestore(t *testing.T) {
	set, _ := NewWindowSet(Tumbling(20), Tumbling(30), Tumbling(40))
	other, _ := NewWindowSet(Tumbling(20), Tumbling(40))
	events := SyntheticStream(StreamConfig{Events: 9000, Keys: 3, EventsPerTick: 30, Seed: 11})
	const cut = 4321
	qopts, dopts := QuantileOptions{Phi: 0.9, Factors: true}, DistinctOptions{Factors: true}

	finish := func(name string, r *Runner, err error, from int, sink *CollectingSink) []Result {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.Process(events[from:])
		r.Close()
		return sink.Sorted()
	}
	whole, split := &CollectingSink{}, &CollectingSink{}
	r, err := NewQuantileRunner(set, qopts, whole)
	want := finish("quantile", r, err, 0, whole)
	r, _ = NewQuantileRunner(set, qopts, split)
	r.Process(events[:cut])
	qsnap, _ := r.Snapshot()
	r, err = RestoreQuantileRunner(set, qopts, split, qsnap)
	if got := finish("quantile restore", r, err, cut, split); !slices.Equal(got, want) || r.Events() != int64(len(events)) {
		t.Errorf("resumed quantile run: %d rows over %d events, uninterrupted %d rows", len(got), r.Events(), len(want))
	}

	whole, split = &CollectingSink{}, &CollectingSink{}
	r, err = NewDistinctRunner(set, dopts, whole)
	want = finish("distinct", r, err, 0, whole)
	r, _ = NewDistinctRunner(set, dopts, split)
	r.Process(events[:cut])
	dsnap, _ := r.Snapshot()
	r, err = RestoreDistinctRunner(set, dopts, split, dsnap)
	if got := finish("distinct restore", r, err, cut, split); !slices.Equal(got, want) {
		t.Errorf("resumed distinct run: %d rows, uninterrupted %d rows", len(got), len(want))
	}
	if _, err := r.Snapshot(); err == nil {
		t.Error("Snapshot after Close must fail")
	}

	sink := &CollectingSink{}
	if _, err := RestoreQuantileRunner(set, QuantileOptions{Phi: 0.5, Factors: true}, sink, qsnap); err != nil {
		t.Errorf("restore under a different phi should work: %v", err)
	}
	for name, restore := range map[string]func() (*Runner, error){
		"quantile, other set":    func() (*Runner, error) { return RestoreQuantileRunner(other, qopts, sink, qsnap) },
		"quantile, no factors":   func() (*Runner, error) { return RestoreQuantileRunner(set, QuantileOptions{}, sink, qsnap) },
		"quantile blob as HLL":   func() (*Runner, error) { return RestoreDistinctRunner(set, dopts, sink, qsnap) },
		"distinct, other set":    func() (*Runner, error) { return RestoreDistinctRunner(other, dopts, sink, dsnap) },
		"distinct, no factors":   func() (*Runner, error) { return RestoreDistinctRunner(set, DistinctOptions{}, sink, dsnap) },
		"distinct blob, garbage": func() (*Runner, error) { return RestoreDistinctRunner(set, dopts, sink, dsnap[:len(dsnap)/2]) },
	} {
		if _, err := restore(); err == nil {
			t.Errorf("%s: restore accepted the snapshot", name)
		}
	}
}
