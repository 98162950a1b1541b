package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
	"factorwindows/internal/window"
)

// TestSnapshotVersionRejected pins the one compatibility promise state
// blobs carry: bytes from another codec generation fail with a typed
// engine.ErrSnapshotVersion at every restore entry point — no panic, no
// partial restore. Four fixtures were written by this repo's
// boxed-state era (before the columnar store): bare-gob engine
// snapshots and a version-0 server checkpoint (two SUM queries, 4
// shards, factors on, reorder bound 4). The fifth is a version-3 server
// checkpoint over a sharded envelope of FWSNAP2 engine snapshots (see
// compat_heap_test.go). The last two are the previous generation's,
// written before snapshots carried their plan: an FWSNAP3 engine
// snapshot (SUM over T20/T30/T40, unshared) and a version-4 server
// checkpoint over FWSNAP3 shard states (demoQuery1 + demoQuery2, 4
// shards, factors on, reorder bound 4) — a checkpoint this build still
// decodes, refused for its shard states before anything is touched.
// Restoring them was dropped by decision; they stay committed as
// negative fixtures.
func TestSnapshotVersionRejected(t *testing.T) {
	set := window.MustSet(window.Tumbling(20), window.Tumbling(30), window.Tumbling(40))
	original := func(t *testing.T, fn agg.Fn) *plan.Plan {
		p, err := plan.NewOriginal(set, fn)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	engineRestore := func(fn agg.Fn) func(*testing.T, []byte) error {
		return func(t *testing.T, data []byte) error {
			if _, err := engine.Restore(original(t, fn), &stream.CountingSink{}, data); !errors.Is(err, engine.ErrSnapshotVersion) {
				return err
			}
			_, _, err := engine.Resume(original(t, fn), &stream.CountingSink{}, engine.Encoded(data), 0)
			return err
		}
	}
	for _, tc := range []struct {
		file    string
		restore func(*testing.T, []byte) error
	}{
		{"../engine/testdata/snapshot_v1_factored_sum.bin", engineRestore(agg.Sum)},
		{"../engine/testdata/snapshot_v1_factored_stdev.bin", engineRestore(agg.StdDev)},
		{"../engine/testdata/snapshot_v1_original_median.bin", engineRestore(agg.Median)},
		{"../engine/testdata/snapshot_v3_original_sum.bin", engineRestore(agg.Sum)},
		{"testdata/checkpoint_v1_two_queries.bin", restoreMustNotMutate},
		{"testdata/checkpoint_pr13_mid_disorder.bin", restoreMustNotMutate},
		{"testdata/checkpoint_v4_fwsnap3.bin", restoreMustNotMutate},
	} {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			data, err := os.ReadFile(filepath.FromSlash(tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.restore(t, data); !errors.Is(err, engine.ErrSnapshotVersion) {
				t.Fatalf("restore error = %v, want one wrapping engine.ErrSnapshotVersion", err)
			}
		})
	}
}

// restoreMustNotMutate feeds data to a serving server — over POST
// /restore, then directly — and returns RestoreCheckpoint's error after
// checking that the rejection left the registry, the epoch and /stats
// exactly as they were and was answered with a 400.
func restoreMustNotMutate(t *testing.T, data []byte) error {
	t.Helper()
	s := New(Config{Shards: 4, Factors: true, ReorderBound: 4})
	defer s.Close()
	if _, err := s.Register("mine", demoQuery1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(genEvents(200, 5, 3)); err != nil {
		t.Fatal(err)
	}
	queries, stats := s.Queries(), s.StatsNow()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /restore answered %d, want 400", resp.StatusCode)
	}
	rerr := s.RestoreCheckpoint(data)
	if got := s.Queries(); !reflect.DeepEqual(got, queries) {
		t.Fatalf("rejected restore changed the registry: %+v, was %+v", got, queries)
	}
	if got := s.StatsNow(); !reflect.DeepEqual(got, stats) {
		t.Fatalf("rejected restore changed /stats (epoch %d, was %d): %+v, was %+v",
			got.Epoch, stats.Epoch, got, stats)
	}
	return rerr
}

// TestOpenRefusesPreviousGeneration: a WAL directory whose newest
// snapshot holds the previous generation's payload — the durable
// envelope (version 1) around a version-3 checkpoint, rings as rows —
// fails Open with an error wrapping engine.ErrSnapshotVersion, before
// any record is replayed: the log is left exactly as it was.
func TestOpenRefusesPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	ingestScript(t, s, genEvents(600, 5, 9), 150)
	rows := allRows(t, s, "a")
	s.Close() // crash: the records stay in the log

	v3, err := os.ReadFile(filepath.Join("testdata", "checkpoint_pr13_mid_disorder.bin"))
	if err != nil {
		t.Fatal(err)
	}
	type ringStateV1 struct {
		ID       string
		Rows     []ResultRow
		FirstSeq int64
		NextSeq  int64
		Evicted  int64
	}
	type durableSnapshotV1 struct {
		Version    int
		Offset     int64
		Checkpoint []byte
		Rings      []ringStateV1
	}
	const offset = 3
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(durableSnapshotV1{
		Version: 1, Offset: offset, Checkpoint: v3,
		Rings: []ringStateV1{{ID: "a", Rows: rows, FirstSeq: rows[0].Seq, NextSeq: rows[len(rows)-1].Seq + 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(nil, dir, offset, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	if s, err := Open(durableConfig(dir)); !errors.Is(err, engine.ErrSnapshotVersion) || s != nil {
		t.Fatalf("Open = %v, %v; want no server and an error wrapping engine.ErrSnapshotVersion", s, err)
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused recovery changed the WAL directory: %d files, was %d", len(after), len(before))
	}
}

// dirContents reads every file in dir.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
