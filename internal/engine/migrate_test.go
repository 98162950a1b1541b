package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// planVariants compiles the three plan shapes for one window set.
func planVariants(t *testing.T, set *window.Set, fn agg.Fn) []*plan.Plan {
	t.Helper()
	orig, err := plan.NewOriginal(set, fn)
	if err != nil {
		t.Fatal(err)
	}
	out := []*plan.Plan{orig}
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
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func sortResults(rs []stream.Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		switch {
		case a.W != b.W:
			if a.W.Range != b.W.Range {
				return a.W.Range < b.W.Range
			}
			return a.W.Slide < b.W.Slide
		case a.Start != b.Start:
			return a.Start < b.Start
		default:
			return a.Key < b.Key
		}
	})
}

// TestMigrateAcrossPlanVariants is the engine-level exactness property
// behind live re-planning: processing a stream while hopping between
// the original, rewritten and factored plans of one window set — with
// every hop an ExportCanonical/Resume handover at a random batch
// boundary — produces exactly the output of an uninterrupted run. No
// window instance open across a hop is skipped or delivered partially.
func TestMigrateAcrossPlanVariants(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	sets := []*window.Set{
		window.MustSet(window.Tumbling(4), window.Tumbling(6)),
		window.MustSet(window.Tumbling(20), window.Tumbling(30), window.Tumbling(40)),
		window.MustSet(window.Hopping(8, 4), window.Hopping(12, 4), window.Tumbling(4)),
		window.MustSet(window.Hopping(12, 6), window.Tumbling(24), window.Tumbling(6)),
	}
	fns := []agg.Fn{agg.Sum, agg.Min, agg.StdDev, agg.Avg}
	for trial := 0; trial < 40; trial++ {
		set := sets[r.Intn(len(sets))]
		fn := fns[r.Intn(len(fns))]
		variants := planVariants(t, set, fn)

		n := 300 + r.Intn(500)
		events := make([]stream.Event, 0, n)
		tick := int64(0)
		for i := 0; i < n; i++ {
			tick += int64(r.Intn(3)) // duplicates straddle cuts on purpose
			events = append(events, stream.Event{
				Time: tick, Key: uint64(r.Intn(6)), Value: float64(r.Intn(50)),
			})
		}

		ref := &stream.CollectingSink{}
		if _, err := Run(variants[0], events, ref); err != nil {
			t.Fatal(err)
		}

		got := &stream.CollectingSink{}
		cur, err := New(variants[r.Intn(len(variants))], got)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(events); {
			j := min(i+1+r.Intn(120), len(events))
			cur.Process(events[i:j])
			i = j
			if i < len(events) && r.Intn(3) == 0 {
				// Hop to another variant: canonical export at the current
				// stream position, exact import into the next plan.
				horizon := events[i-1].Time + 1
				if events[i].Time == events[i-1].Time {
					horizon = events[i].Time
				}
				ex, err := cur.ExportCanonical(horizon)
				if err != nil {
					t.Fatal(err)
				}
				next, migrated, err := Resume(variants[r.Intn(len(variants))], got, Exported(ex), horizon)
				if err != nil {
					t.Fatal(err)
				}
				_ = migrated
				cur = next
			}
		}
		cur.Close()

		sortResults(ref.Results)
		sortResults(got.Results)
		if len(ref.Results) != len(got.Results) {
			t.Fatalf("trial %d (%v, %v): %d results across migrations, want %d",
				trial, set, fn, len(got.Results), len(ref.Results))
		}
		for i := range ref.Results {
			if fmt.Sprint(ref.Results[i]) != fmt.Sprint(got.Results[i]) {
				t.Fatalf("trial %d (%v, %v): result %d = %+v, want %+v",
					trial, set, fn, i, got.Results[i], ref.Results[i])
			}
		}
	}
}

// TestMigrateEpochScaleTimestamps pins export cost at realistic clock
// values: canonicalizing a plan whose stream sits at a Unix-epoch-scale
// tick must be O(open instances), not O(t/slide) — a shared child node
// that has no open instances (never fed, or drained at export time)
// must not make the walk materialize every index since tick zero. The
// test would run for hours (and allocate unboundedly) if it regressed.
func TestMigrateEpochScaleTimestamps(t *testing.T) {
	set := window.MustSet(window.Tumbling(20), window.Tumbling(30), window.Tumbling(40))
	variants := planVariants(t, set, agg.Sum)
	const now = int64(1_700_000_000)

	sink := &stream.CollectingSink{}
	cur, err := New(variants[2], sink) // factored: W(10) feeds shared children
	if err != nil {
		t.Fatal(err)
	}
	cur.Process([]stream.Event{{Time: now, Key: 1, Value: 2}})
	for hop := 0; hop < 4; hop++ {
		ex, err := cur.ExportCanonical(now + int64(hop))
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range ex.Windows {
			if len(ws.Instances) > 8 {
				t.Fatalf("%v exported %d instances at tick %d; walk is not horizon-bounded",
					ws.W, len(ws.Instances), now)
			}
		}
		cur, _, err = Resume(variants[hop%len(variants)], sink, Exported(ex), now+int64(hop))
		if err != nil {
			t.Fatal(err)
		}
		cur.Process([]stream.Event{{Time: now + int64(hop), Key: 1, Value: 1}})
	}
	cur.Close()
	// The W(40) instance covering `now` must surface every hop's event:
	// state survived the migrations even though intermediate nodes had
	// never materialized low instance indices.
	var got float64
	for _, r := range sink.Results {
		if r.W == window.Tumbling(40) && r.Key == 1 && r.Start <= now && now < r.End {
			got = r.Value
		}
	}
	if got != 2+1+1+1+1 {
		t.Fatalf("W(40) instance covering %d = %v, want 6", now, got)
	}
}

// TestMigrateSnapshotRoundTrip pins checkpoint fidelity for migrated
// state: a snapshot taken while imported straddling instances are still
// open (frozen spans live) must restore to a Runner whose remaining
// output matches the unsnapshotted continuation exactly.
func TestMigrateSnapshotRoundTrip(t *testing.T) {
	set := window.MustSet(window.Hopping(8, 4), window.Tumbling(4), window.Tumbling(16))
	variants := planVariants(t, set, agg.Sum)

	r := rand.New(rand.NewSource(9))
	var events []stream.Event
	tick := int64(0)
	for i := 0; i < 400; i++ {
		tick += int64(r.Intn(2))
		events = append(events, stream.Event{Time: tick, Key: uint64(r.Intn(4)), Value: float64(r.Intn(9))})
	}
	cut := 200

	run := func(snapshotHop bool) []stream.Result {
		sink := &stream.CollectingSink{}
		a, err := New(variants[2], sink)
		if err != nil {
			t.Fatal(err)
		}
		a.Process(events[:cut])
		ex, err := a.ExportCanonical(events[cut-1].Time + 1)
		if err != nil {
			t.Fatal(err)
		}
		b, migrated, err := Resume(variants[0], sink, Exported(ex), events[cut-1].Time+1)
		if err != nil {
			t.Fatal(err)
		}
		if migrated == 0 {
			t.Fatal("nothing migrated; straddling state is vacuous")
		}
		if snapshotHop {
			blob, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err = Restore(variants[0], sink, blob)
			if err != nil {
				t.Fatal(err)
			}
		}
		b.Process(events[cut:])
		b.Close()
		sortResults(sink.Results)
		return sink.Results
	}

	plainRun := run(false)
	snapRun := run(true)
	if len(plainRun) != len(snapRun) {
		t.Fatalf("snapshot round-trip changed result count: %d vs %d", len(snapRun), len(plainRun))
	}
	for i := range plainRun {
		if fmt.Sprint(plainRun[i]) != fmt.Sprint(snapRun[i]) {
			t.Fatalf("result %d diverged after snapshot round-trip: %+v vs %+v",
				i, snapRun[i], plainRun[i])
		}
	}
}

// TestImportRejectsDuplicateKey is TestRestoreRejectsEmptyCell's import
// twin for the key table: an export (it arrives in a hello's State)
// listing one key in two slots must not import — both slots would fire
// a row for the same (window, instance, key).
func TestImportRejectsDuplicateKey(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(10)), agg.Sum)
	r, _ := New(p, &stream.CountingSink{})
	r.Process([]stream.Event{{Time: 1, Key: 7, Value: 1}, {Time: 2, Key: 8, Value: 6}})
	ex, err := r.ExportCanonical(3)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeExport(ex)
	if err != nil {
		t.Fatal(err)
	}
	if ex, err = DecodeExport(blob); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(p, &stream.CountingSink{}, Exported(ex), 3); err != nil {
		t.Fatalf("an intact export must import: %v", err)
	}
	ex.Keys[1] = ex.Keys[0]
	if _, _, err := Resume(p, &stream.CountingSink{}, Exported(ex), 3); err == nil {
		t.Fatal("export with a duplicate key must be rejected")
	}
}
