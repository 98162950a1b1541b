package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/plan"
	"factorwindows/internal/sketch"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/workload"
)

// runWithCheckpoint processes events, snapshotting/restoring at cut.
func runWithCheckpoint(t *testing.T, p *plan.Plan, events []stream.Event, cut int) []stream.Result {
	t.Helper()
	sink := &stream.CollectingSink{}
	r1, err := New(p, sink)
	if err != nil {
		t.Fatal(err)
	}
	r1.Process(events[:cut])
	data, err := r1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Abandon r1 (simulated crash) and resume in a fresh runner that
	// shares the same sink.
	r2, err := Restore(p, sink, data)
	if err != nil {
		t.Fatal(err)
	}
	r2.Process(events[cut:])
	r2.Close()
	if r2.Events() != int64(len(events)) {
		t.Fatalf("events counter not resumed: %d", r2.Events())
	}
	return sink.Sorted()
}

func TestCheckpointRoundTripOriginal(t *testing.T) {
	set := window.MustSet(window.Tumbling(8), window.Hopping(12, 4))
	r := rand.New(rand.NewSource(1))
	events := steadyStream(80, 3, r)
	for _, fn := range []agg.Fn{agg.Min, agg.Sum, agg.StdDev} {
		p, err := plan.NewOriginal(set, fn)
		if err != nil {
			t.Fatal(err)
		}
		want := runPlan(t, p, events)
		for _, cut := range []int{1, len(events) / 3, len(events) / 2, len(events) - 1} {
			got := runWithCheckpoint(t, p, events, cut)
			sameResults(t, fn.String(), got, want)
		}
	}
}

// TestCheckpointRoundTripFactored resumes Example 7's factored plan
// mid-stream, for MIN and for every sketch-backed function at a volume
// where the quantile sketches of the larger windows have compacted (the
// serialized sketch must carry its levels and generator state, or the
// resumed run diverges). The factor window W(10,10) is state like any
// other operator's but never output: no row may carry it, snapshot or no
// snapshot.
func TestCheckpointRoundTripFactored(t *testing.T) {
	set := window.MustSet(window.Tumbling(20), window.Tumbling(30), window.Tumbling(40))
	r := rand.New(rand.NewSource(2))
	sparse := steadyStream(200, 4, r)
	dense := denseSkewed(200, 2, 12, r) // 480 values per W(40,40) instance per key > K
	for _, tc := range []struct {
		fn     agg.Fn
		param  float64
		events []stream.Event
	}{
		{agg.Min, 0, sparse},
		{agg.Percentile, 0.9, dense},
		{agg.Distinct, 0, dense},
		{agg.TopK, 2, dense},
	} {
		res, err := core.Optimize(set, tc.fn, core.Options{Factors: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FactorWindows) == 0 {
			t.Fatalf("%v: Example 7's set kept no factor window", tc.fn)
		}
		p, err := plan.FromGraph(res.Graph, tc.fn, plan.Factored)
		if err != nil {
			t.Fatal(err)
		}
		p.Param = tc.param
		want := runPlan(t, p, tc.events)
		for _, row := range want {
			if !set.Contains(row.W) {
				t.Fatalf("%v: factor window %v leaked into the results", tc.fn, row.W)
			}
		}
		for _, cut := range []int{0, 7, 333, len(tc.events) / 2, len(tc.events) - 1} {
			got := runWithCheckpoint(t, p, tc.events, cut)
			sameResults(t, "factored "+tc.fn.String(), got, want)
		}
	}
}

func TestCheckpointRandomCuts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		set := &window.Set{}
		for set.Len() < 3 {
			s := int64(r.Intn(5) + 1)
			k := int64(r.Intn(3) + 1)
			w := window.Window{Range: s * k, Slide: s}
			if !set.Contains(w) {
				_ = set.Add(w)
			}
		}
		fn := agg.ShareableFns()[r.Intn(len(agg.ShareableFns()))]
		res, err := core.Optimize(set, fn, core.Options{Factors: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.FromGraph(res.Graph, fn, plan.Factored)
		if err != nil {
			t.Fatal(err)
		}
		events := steadyStream(int64(r.Intn(60)+40), r.Intn(3)+1, r)
		want := runPlan(t, p, events)
		cut := r.Intn(len(events)-2) + 1
		got := runWithCheckpoint(t, p, events, cut)
		sameResults(t, set.String()+" "+fn.String(), got, want)
	}
}

func TestCheckpointRejectsWrongPlan(t *testing.T) {
	p1, _ := plan.NewOriginal(window.MustSet(window.Tumbling(8)), agg.Min)
	p2, _ := plan.NewOriginal(window.MustSet(window.Tumbling(10)), agg.Min)
	p3, _ := plan.NewOriginal(window.MustSet(window.Tumbling(8)), agg.Max)

	r, err := New(p1, &stream.CountingSink{})
	if err != nil {
		t.Fatal(err)
	}
	r.Process([]stream.Event{{Time: 0, Key: 1, Value: 2}})
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(p2, &stream.CountingSink{}, data); err == nil {
		t.Fatal("different windows must be rejected")
	}
	if _, err := Restore(p3, &stream.CountingSink{}, data); err == nil {
		t.Fatal("different aggregate function must be rejected")
	}
	if _, err := Restore(p1, &stream.CountingSink{}, []byte("garbage")); err == nil {
		t.Fatal("corrupt snapshot must be rejected")
	}
}

// reencode serializes a (doctored) decoded snapshot in the v2 codec.
func reencode(t *testing.T, snap snapshotV2) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(snapshotMagicV2)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreSketchState pins what a sketch plan's snapshot may and may
// not be restored into. The finalize parameter is not state, so another
// φ is fine. A sketch blob built with a foreign configuration is not: a
// KLL merge would concatenate levels of different K and silently lose
// the error bound, an HLL merge of different precision fails mid-stream
// — so Restore must reject it up front (Store.SetSketchAt), as it must a
// sketch row that lost its blob.
func TestRestoreSketchState(t *testing.T) {
	set := window.MustSet(window.Tumbling(10), window.Tumbling(20))
	q, h := sketch.New(2*sketch.DefaultK), sketch.NewHLL(sketch.DefaultP+1)
	q.Add(1)
	h.Add(1)
	foreignK, _ := q.MarshalBinary()
	foreignP, _ := h.MarshalBinary()
	for _, tc := range []struct {
		fn      agg.Fn
		foreign []byte
	}{
		{agg.Percentile, foreignK},
		{agg.Distinct, foreignP},
	} {
		p, _ := plan.NewOriginal(set, tc.fn)
		r, _ := New(p, &stream.CountingSink{})
		r.Process([]stream.Event{{Time: 0, Key: 1, Value: 1}, {Time: 1, Key: 1, Value: 2}})
		data, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		other, _ := plan.NewOriginal(set, tc.fn)
		other.Param = 0.9 // DISTINCT ignores it
		if _, err := Restore(other, &stream.CountingSink{}, data); err != nil {
			t.Fatalf("%v: restore under another finalize parameter must work: %v", tc.fn, err)
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		inst := &snap.Nodes[0].Instances[0]
		native := inst.Sketch[0]
		inst.Sketch[0] = tc.foreign
		if _, err := Restore(p, &stream.CountingSink{}, reencode(t, snap)); err == nil {
			t.Fatalf("%v: a sketch of foreign configuration must be rejected", tc.fn)
		}
		inst.Sketch[0] = native[:len(native)/2]
		if _, err := Restore(p, &stream.CountingSink{}, reencode(t, snap)); err == nil {
			t.Fatalf("%v: a truncated sketch must be rejected", tc.fn)
		}
		inst.Sketch = nil
		if _, err := Restore(p, &stream.CountingSink{}, reencode(t, snap)); err == nil {
			t.Fatalf("%v: a sketch row without sketch state must be rejected", tc.fn)
		}
	}
}

func TestSnapshotAfterCloseFails(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(8)), agg.Min)
	r, _ := New(p, &stream.CountingSink{})
	r.Close()
	if _, err := r.Snapshot(); err == nil {
		t.Fatal("Snapshot after Close must fail")
	}
}

func TestSnapshotPreservesStats(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(4)), agg.Count)
	r, _ := New(p, &stream.CountingSink{})
	events := steadyStream(17, 1, rand.New(rand.NewSource(4)))
	r.Process(events)
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(p, &stream.CountingSink{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats()[0].Inputs != r.Stats()[0].Inputs || r2.TotalUpdates() != r.TotalUpdates() {
		t.Fatal("stats not preserved across restore")
	}
}

// TestRestoreRejectsEmptyCell guards the restore invariants a decodable
// blob can still break. Snapshots record only live rows, so a cell with
// a non-positive count (which would write column values without marking
// the row occupied, poisoning the recycled span) must be rejected, not
// absorbed; and the key table must be a bijection, or a key listed
// twice owns two slots and every instance holding both fires two rows
// for it.
func TestRestoreRejectsEmptyCell(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(8)), agg.Sum)
	r, _ := New(p, &stream.CountingSink{})
	r.Process([]stream.Event{{Time: 1, Key: 1, Value: 2}, {Time: 2, Key: 5, Value: 3}})
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*snapshotV2)
	}{
		{"zero-count cell", func(s *snapshotV2) { s.Nodes[0].Instances[0].Cells[0].Cnt = 0 }},
		{"duplicate key", func(s *snapshotV2) { s.Keys[1] = s.Keys[0] }},
	} {
		snap, err := decodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(&snap)
		if _, err := Restore(p, &stream.CountingSink{}, reencode(t, snap)); err == nil {
			t.Fatalf("snapshot with a %s must be rejected", tc.name)
		}
	}
}

// bitDiff counts rows of got whose value differs from want's in any bit
// (NaN payloads included); the row headers must agree outright.
func bitDiff(t *testing.T, label string, got, want []stream.Result) int {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	diff := 0
	for i := range want {
		g, w := got[i], want[i]
		if g.W != w.W || g.Start != w.Start || g.End != w.End || g.Key != w.Key {
			t.Fatalf("%s: row %d is %v, want %v", label, i, g, w)
		}
		if math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			diff++
		}
	}
	return diff
}

// TestSnapshotExactOnOrderSensitiveData is the engine-level reason the
// two state forms have one job each. On data whose aggregates depend on
// merge order (non-integer values; ≥ 4·k values per key per instance, so
// every quantile sketch compacts), cut mid-instance of every window:
//
//   - snapshot → restore continues bit-identically to the uninterrupted
//     run, on all three plan shapes — the operator state resumes the
//     plan's own merge order;
//   - export → import into the *same* plan is not required to: the export
//     folds each open parent instance into its children early, which
//     reassociates float sums and moves sketch compaction points. It must
//     still produce the same rows with values inside float / sketch
//     error, and how many differ in some bit is logged, not asserted.
//
// So a move that keeps the plan (compaction, failover, rebalance, drain,
// checkpoint) carries the snapshot, and only a re-plan carries the export.
func TestSnapshotExactOnOrderSensitiveData(t *testing.T) {
	set := window.MustSet(window.Tumbling(2000), window.Tumbling(4000), window.Tumbling(8000))
	// 2 keys at one event per tick: 1000 values per key per T2000 instance.
	events := workload.OrderSensitive(workload.StreamConfig{Events: 24000, Keys: 2, Seed: 28})
	cut := len(events)/2 + 1137 // tick 13137: inside an instance of all three windows
	for _, tc := range []struct {
		fn    agg.Fn
		param float64
	}{{agg.Sum, 0}, {agg.Avg, 0}, {agg.StdDev, 0}, {agg.Percentile, 0.5}, {agg.TopK, 2}} {
		for vi, p := range planVariants(t, set, tc.fn) {
			label := fmt.Sprintf("%v/variant %d", tc.fn, vi)
			p.Param = tc.param
			want := runPlan(t, p, events)
			if d := bitDiff(t, label+" snapshot", runWithCheckpoint(t, p, events, cut), want); d != 0 {
				t.Errorf("%s: snapshot→restore differs from the uninterrupted run in %d/%d rows", label, d, len(want))
			}

			sink := &stream.CollectingSink{}
			a, err := New(p, sink)
			if err != nil {
				t.Fatal(err)
			}
			a.Process(events[:cut])
			horizon := events[cut].Time
			ex, err := a.ExportCanonical(horizon)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := Resume(p, sink, Exported(ex), horizon)
			if err != nil {
				t.Fatal(err)
			}
			b.Process(events[cut:])
			b.Close()
			got := sink.Sorted()
			if !agg.SketchBacked(tc.fn) {
				sameResults(t, label+" export", got, want) // 1e-9 relative
			}
			t.Logf("%s: export→import into the same plan differs in %d/%d rows (allowed)",
				label, bitDiff(t, label+" export", got, want), len(want))
		}
	}
}
