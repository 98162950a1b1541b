package factorwindows

import (
	"strings"
	"testing"
)

func TestCompileAllMultiAggregate(t *testing.T) {
	q, err := ParseQuery(`
		SELECT DeviceID, MIN(T) AS Lo, MAX(T) AS Hi, AVG(T)
		FROM Input GROUP BY DeviceID, Windows(
			TumblingWindow(tick, 20),
			TumblingWindow(tick, 40))`)
	if err != nil {
		t.Fatal(err)
	}
	// Compile refuses multi-aggregate queries, pointing at CompileAll.
	if _, err := Compile(q, Options{}); err == nil || !strings.Contains(err.Error(), "CompileAll") {
		t.Fatalf("Compile should defer to CompileAll, got %v", err)
	}
	bundles, err := CompileAll(q, Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 3 {
		t.Fatalf("got %d bundles", len(bundles))
	}
	events := SyntheticStream(StreamConfig{Events: 10_000, Keys: 2, EventsPerTick: 2, Seed: 5})
	for i, c := range bundles {
		fn := q.Aggregates[i].Fn
		if c.Optimization.Plan.Fn != fn {
			t.Errorf("bundle %d compiled for %v, want %v", i, c.Optimization.Plan.Fn, fn)
		}
		sink := &CollectingSink{}
		if err := c.Run(events, sink); err != nil {
			t.Fatal(err)
		}
		orig := &CollectingSink{}
		if err := Run(c.Optimization.Original, events, orig); err != nil {
			t.Fatal(err)
		}
		a, b := sink.Sorted(), orig.Sorted()
		if len(a) != len(b) {
			t.Fatalf("%v: %d vs %d results", fn, len(a), len(b))
		}
		for j := range b {
			if a[j] != b[j] {
				t.Fatalf("%v row %d: %v vs %v", fn, j, a[j], b[j])
			}
		}
	}
}

func TestWhereFiltersEvents(t *testing.T) {
	q, err := ParseQuery(`
		SELECT DeviceID, COUNT(T)
		FROM Input WHERE T >= 100 AND DeviceID = 1
		GROUP BY DeviceID, Windows(TumblingWindow(tick, 10))`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Time: 0, Key: 1, Value: 150}, // kept
		{Time: 1, Key: 1, Value: 50},  // T < 100
		{Time: 2, Key: 2, Value: 200}, // wrong device
		{Time: 3, Key: 1, Value: 100}, // kept (boundary)
	}
	sink := &CollectingSink{}
	if err := c.Run(events, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != 1 {
		t.Fatalf("got %d results: %v", len(sink.Results), sink.Results)
	}
	if got := sink.Results[0]; got.Key != 1 || got.Value != 2 {
		t.Fatalf("result %+v, want key 1 count 2", got)
	}
}

func TestWhereEmptyAfterFilter(t *testing.T) {
	q, err := ParseQuery(`
		SELECT k, SUM(v) FROM s WHERE v > 1000
		GROUP BY k, Windows(TumblingWindow(tick, 5))`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &CollectingSink{}
	if err := c.Run([]Event{{Time: 0, Key: 1, Value: 5}}, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != 0 {
		t.Fatalf("all events filtered; got %v", sink.Results)
	}
}

func TestCompileAllNil(t *testing.T) {
	if _, err := CompileAll(nil, Options{}); err == nil {
		t.Error("nil query should fail")
	}
}

// TestCompileCarriesAggregateParameter pins the finalize parameter of a
// parameterized call all the way onto the compiled plans: PERCENTILE(v,
// 0.9) over 1..10 answers 9 (a dropped parameter answers the median, 5),
// two percentiles in one SELECT answer differently, and TOPK's rank
// selects the k-th most frequent value.
func TestCompileCarriesAggregateParameter(t *testing.T) {
	parse := func(sel string) *Query {
		t.Helper()
		q, err := ParseQuery(`SELECT k, ` + sel + ` FROM s GROUP BY k, Windows(TumblingWindow(tick, 10))`)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	run := func(p *Plan, values ...float64) float64 {
		t.Helper()
		var events []Event
		for i, v := range values {
			events = append(events, Event{Time: int64(i), Key: 1, Value: v})
		}
		sink := &CollectingSink{}
		if err := Run(p, events, sink); err != nil {
			t.Fatal(err)
		}
		if len(sink.Results) != 1 {
			t.Fatalf("%d rows, want 1", len(sink.Results))
		}
		return sink.Results[0].Value
	}
	ramp := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

	c, err := Compile(parse(`PERCENTILE(v, 0.9)`), Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := run(c.Optimization.Plan, ramp...); got != 9 {
		t.Errorf("PERCENTILE(v, 0.9) over 1..10 = %v on the optimized plan, want 9", got)
	}
	if got := run(c.Optimization.Original, ramp...); got != 9 {
		t.Errorf("PERCENTILE(v, 0.9) over 1..10 = %v on the original plan, want 9", got)
	}

	both, err := CompileAll(parse(`PERCENTILE(v, 0.5) AS p50, PERCENTILE(v, 0.99) AS p99`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := run(both[0].Optimization.Plan, ramp...), run(both[1].Optimization.Plan, ramp...); lo != 5 || hi != 10 {
		t.Errorf("p50, p99 over 1..10 = %v, %v; want 5, 10", lo, hi)
	}

	// Frequencies 5, 3, 2: the mode is 7, the third most frequent value 9.
	skewed := []float64{7, 7, 7, 7, 7, 8, 8, 8, 9, 9}
	for k, want := range map[string]float64{`TOPK(v, 1)`: 7, `TOPK(v, 3)`: 9} {
		c, err := Compile(parse(k), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := run(c.Optimization.Plan, skewed...); got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
}
