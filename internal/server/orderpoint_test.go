package server

import (
	"net/http"
	"reflect"
	"testing"

	"factorwindows/internal/reorder"
	"factorwindows/internal/stream"
)

// TestEmptyIngestBodyRepliesLiveStatus: an empty body makes one Ingest
// call under every codec, so its reply is the server's live status —
// epoch, cumulative late count and pending events — not a zero value.
func TestEmptyIngestBodyRepliesLiveStatus(t *testing.T) {
	s := New(Config{Shards: 2, ReorderBound: 10})
	defer s.Close()
	for _, id := range []string{"a", "b"} {
		if _, err := s.Register(id, demoQuery1); err != nil {
			t.Fatal(err)
		}
	}
	var events []stream.Event
	for tick := int64(0); tick <= 30; tick++ {
		events = append(events, stream.Event{Time: tick, Key: uint64(tick % 3), Value: 1})
	}
	if _, err := s.Ingest(events); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]stream.Event{{Time: 5, Key: 1, Value: 1}}); err != nil { // beyond the bound
		t.Fatal(err)
	}
	st := s.StatsNow()
	want := IngestStatus{Late: st.Late, Buffered: st.Buffered, Epoch: st.Epoch}
	if want.Epoch != 2 || want.Late == 0 || want.Buffered == 0 {
		t.Fatalf("setup: live status %+v, want epoch 2 with late and buffered events", want)
	}
	h := s.Handler()
	for _, c := range []struct{ codec, contentType, body string }{
		{"json", "application/json", "[]"},
		{"ndjson", "application/x-ndjson", ""},
		{"csv", "text/csv", ""},
		{"frames", ContentTypeFrame, ""},
	} {
		code, reply := postIngestBody(t, h, c.contentType, []byte(c.body))
		if code != http.StatusOK || reply.IngestStatus != want {
			t.Errorf("%s: empty body replies %d %+v, want 200 %+v", c.codec, code, reply.IngestStatus, want)
		}
	}
}

// TestRestoreTrimPublishesRows: restoring a checkpoint whose pending
// backlog exceeds the restoring server's reorder cap force-releases the
// overflow into the engine, and the rows that completes are readable as
// soon as RestoreCheckpoint returns; a /stats read, which publishes
// nothing, changes none of them.
func TestRestoreTrimPublishesRows(t *testing.T) {
	const sql = "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 4))"
	src := New(Config{Shards: 2, ReorderBound: 64})
	defer src.Close()
	if _, err := src.Register("q", sql); err != nil {
		t.Fatal(err)
	}
	var events []stream.Event
	for tick := int64(0); tick < 40; tick++ {
		for k := range uint64(2) {
			events = append(events, stream.Event{Time: tick, Key: k, Value: float64(tick)})
		}
	}
	if _, err := src.Ingest(events); err != nil {
		t.Fatal(err)
	}
	if st := src.StatsNow(); st.Buffered != len(events) {
		t.Fatalf("setup: %d events pending, want all %d held back", st.Buffered, len(events))
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	dst := New(Config{Shards: 2, ReorderBound: 64, ReorderCap: 5, ReorderCapPolicy: reorder.ReleaseOldest})
	defer dst.Close()
	if err := dst.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	rows := allRows(t, dst, "q")
	if len(rows) == 0 {
		t.Fatal("no rows readable after a restore that force-released a 35-tick backlog")
	}
	for _, r := range rows {
		if want := float64(4*r.Start + 6); r.Value != want { // ticks start..start+3
			t.Errorf("window [%d,%d) key %d = %g, want %g", r.Start, r.End, r.Key, r.Value, want)
		}
	}
	dst.StatsNow()
	if again := allRows(t, dst, "q"); !reflect.DeepEqual(again, rows) {
		t.Fatalf("a /stats read changed what readers see: %d rows before, %d after", len(rows), len(again))
	}
}
