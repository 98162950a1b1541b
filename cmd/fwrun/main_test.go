package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"factorwindows/internal/stream"
)

func TestLoadQuery(t *testing.T) {
	q, err := loadQuery(`SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5))`, "")
	if err != nil || q.KeyColumn != "k" {
		t.Fatalf("%v %v", q, err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "q.sql")
	if err := os.WriteFile(path, []byte(`SELECT k, MAX(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 7))`), 0o600); err != nil {
		t.Fatal(err)
	}
	q, err = loadQuery("", path)
	if err != nil || q.Windows[0].W.Range != 7 {
		t.Fatalf("%v %v", q, err)
	}
	if _, err := loadQuery("", ""); err == nil {
		t.Fatal("no query must fail")
	}
	if _, err := loadQuery("", filepath.Join(dir, "missing.sql")); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestLoadEventsGeneratedAndFile(t *testing.T) {
	es, err := loadEvents("", "csv", "synthetic", 100, 2, 2, 1)
	if err != nil || len(es) != 100 {
		t.Fatalf("synthetic: %d %v", len(es), err)
	}
	es, err = loadEvents("", "csv", "debs", 50, 2, 2, 1)
	if err != nil || len(es) != 50 {
		t.Fatalf("debs: %d %v", len(es), err)
	}
	if _, err := loadEvents("", "csv", "mystery", 10, 1, 1, 1); err == nil {
		t.Fatal("unknown dataset must fail")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "events.csv")
	if err := os.WriteFile(path, []byte("time,key,value\n0,1,5\n1,1,6\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	es, err = loadEvents(path, "csv", "", 0, 0, 0, 0)
	if err != nil || len(es) != 2 {
		t.Fatalf("file: %d %v", len(es), err)
	}
	if _, err := loadEvents(filepath.Join(dir, "missing.csv"), "csv", "", 0, 0, 0, 0); err == nil {
		t.Fatal("missing file must fail")
	}
}

// TestPlanVariantsAgreeOnParameterizedQuery runs one PERCENTILE(v, 0.9)
// query under every -plan variant. All five evaluate the same function
// with the same parameter, so below the sketch's compaction size they
// must return the same rows — and those rows must be the 0.9-quantile,
// not the default median a dropped parameter would answer.
func TestPlanVariantsAgreeOnParameterizedQuery(t *testing.T) {
	q, err := loadQuery(`SELECT k, PERCENTILE(v, 0.9) FROM s GROUP BY k,
		Windows(TumblingWindow(tick, 10), TumblingWindow(tick, 20), HoppingWindow(tick, 20, 10))`, "")
	if err != nil {
		t.Fatal(err)
	}
	var es []stream.Event
	for i := 0; i < 60; i++ {
		es = append(es, stream.Event{Time: int64(i), Key: uint64(i % 2), Value: float64(i%10 + 1)})
	}
	var want []stream.Result
	for _, kind := range []string{"original", "rewritten", "factored", "slicing", "sliding"} {
		sink := &stream.CollectingSink{}
		if err := execute(q, kind, es, sink, 1); err != nil {
			t.Fatalf("-plan %s: %v", kind, err)
		}
		got := sink.Sorted()
		if want == nil {
			want = got
			// W(10,10) instance [0,10), key 0 holds 1,3,5,7,9: rank ⌈0.9·5⌉ is 9.
			if first := want[0]; first.End != 10 || first.Key != 0 || first.Value != 9 {
				t.Fatalf("first row %v, want W(10,10) [0,10) key 0 = 9", first)
			}
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("-plan %s printed\n%v\n-plan original printed\n%v", kind, got, want)
		}
	}
	sharded := &stream.CollectingSink{}
	if err := execute(q, "factored", es, sharded, 3); err != nil || !slices.Equal(sharded.Sorted(), want) {
		t.Errorf("-plan factored -shards 3 printed\n%v (%v)\n-plan original printed\n%v", sharded.Sorted(), err, want)
	}
	if err := execute(q, "quantile", es, &stream.CollectingSink{}, 1); err == nil {
		t.Error("-plan quantile is gone and must be refused")
	}
}
