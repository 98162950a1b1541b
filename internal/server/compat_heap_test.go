package server

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/reorder"
	"factorwindows/internal/stream"
)

// disorderedFixtureEvents is the stream behind
// testdata/checkpoint_pr13_mid_disorder.bin: genEvents shuffled in
// 8-event blocks, which stays inside a reorder bound of 16 ticks. Values
// are small integers, so SUM is exact in any event order.
func disorderedFixtureEvents() []stream.Event {
	events := genEvents(1200, 5, 18)
	r := rand.New(rand.NewSource(18))
	for off := 0; off < len(events); off += 8 {
		b := events[off:min(off+8, len(events))]
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	return events
}

// checkpointV3 is the previous generation's server checkpoint record,
// the form testdata/checkpoint_pr13_mid_disorder.bin was written in: the
// shard engines' FWSNAP2 snapshots sat in a sharded envelope in Engine.
type checkpointV3 struct {
	Version  int
	Queries  []checkpointQuery
	NextID   int64
	Fn       agg.Fn
	HasFn    bool
	Factors  bool
	Param    float64
	PlanEta  int64
	Epoch    int64
	Ingested int64
	Dropped  int64
	Late     int64
	HasPipe  bool
	HasCarry bool
	Reorder  reorder.State
	Engine   []byte
}

// testdata/checkpoint_pr13_mid_disorder.bin is a server checkpoint taken
// at PR 13's commit — the heap-based reorder buffer — by a 2-shard
// server (factors on, reorder bound 16, demoQuery1 + demoQuery2) right
// after ingesting the first 700 events of disorderedFixtureEvents, with
// 17 events still held back in heap-array order. This build no longer
// reads its generation (TestSnapshotVersionRejected), so the test lifts
// it into the current record: the fixture's registry, counters and
// reorder state, pending events in their heap-array order, over the
// engine snapshots of a reference server at the same cut (the engines
// hold only released events, which the fixture's horizon pins). Restored
// on the bucketed buffer and fed the rest of the stream, the server must
// deliver, byte for byte, the rows an uninterrupted server delivers
// after that point.
func TestRestoreHeapEraServerCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_pr13_mid_disorder.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var old checkpointV3
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if old.Version != 3 || !old.HasPipe || len(old.Reorder.Pending) != 17 || old.Ingested != 700 {
		t.Fatalf("fixture is version %d holding %d pending events after %d ingested", old.Version, len(old.Reorder.Pending), old.Ingested)
	}
	events := disorderedFixtureEvents()
	const cut = 700
	cfg := Config{Shards: 2, Factors: true, ReorderBound: 16}

	ref := New(cfg)
	defer ref.Close()
	if _, err := ref.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Register("b", demoQuery2); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Ingest(events[:cut]); err != nil {
		t.Fatal(err)
	}
	refData, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(refData)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	if cp.Reorder.Released != old.Reorder.Released || slices.Equal(cp.Reorder.Pending, old.Reorder.Pending) ||
		!sameEventSet(cp.Reorder.Pending, old.Reorder.Pending) {
		t.Fatalf("reference at the cut released %d holding %v; fixture released %d holding %v in heap order",
			cp.Reorder.Released, cp.Reorder.Pending, old.Reorder.Released, old.Reorder.Pending)
	}
	lifted := checkpoint{
		Version: checkpointVersion, Queries: old.Queries, NextID: old.NextID,
		Fn: old.Fn, HasFn: old.HasFn, Factors: old.Factors, Param: old.Param, PlanEta: old.PlanEta,
		Epoch: old.Epoch, Ingested: old.Ingested, Dropped: old.Dropped, Late: old.Late,
		Reorder: old.Reorder, Shards: cp.Shards, Events: cp.Events,
	}
	var liftedData bytes.Buffer
	if err := gob.NewEncoder(&liftedData).Encode(lifted); err != nil {
		t.Fatal(err)
	}
	// Rows the reference had delivered by the checkpoint's position; the
	// restored server starts a fresh ring, so its row 0 is the
	// reference's row before[id].
	before := map[string]int64{}
	for _, id := range []string{"a", "b"} {
		rg, err := ref.ringOf(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id], _ = rg.counters()
	}
	if _, err := ref.Ingest(events[cut:]); err != nil {
		t.Fatal(err)
	}
	ref.Close()

	s := New(cfg)
	defer s.Close()
	if err := s.RestoreCheckpoint(liftedData.Bytes()); err != nil {
		t.Fatalf("restoring heap-era checkpoint: %v", err)
	}
	if st := s.StatsNow(); st.Queries != 2 || st.Ingested != cut || st.Buffered != 17 {
		t.Fatalf("restored stats = %+v, want 2 queries, %d ingested, 17 buffered", st, cut)
	}
	if _, err := s.Ingest(events[cut:]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, id := range []string{"a", "b"} {
		want, missed, err := ref.Results(id, before[id]-1, 0)
		if err != nil || missed != 0 {
			t.Fatalf("query %s reference read: missed %d, %v", id, missed, err)
		}
		for i := range want {
			want[i].Seq -= before[id]
		}
		got, missed, err := s.Results(id, -1, 0)
		if err != nil || missed != 0 {
			t.Fatalf("query %s restored read: missed %d, %v", id, missed, err)
		}
		if len(got) == 0 {
			t.Fatalf("query %s: restored run produced no rows", id)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %s: %d restored rows differ from the uninterrupted run's %d rows after the cut:\n%v\nwant:\n%v",
				id, len(got), len(want), got, want)
		}
	}
}

// sameEventSet reports whether a and b hold the same events, in any
// order.
func sameEventSet(a, b []stream.Event) bool {
	less := func(x, y stream.Event) int {
		return cmp.Or(cmp.Compare(x.Time, y.Time), cmp.Compare(x.Key, y.Key), cmp.Compare(x.Value, y.Value))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, less)
	slices.SortFunc(b, less)
	return slices.Equal(a, b)
}
