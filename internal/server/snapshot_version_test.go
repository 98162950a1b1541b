package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/engine"
	"factorwindows/internal/parallel"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// TestSnapshotVersionRejected pins the one compatibility promise state
// blobs carry: bytes from another codec generation fail with a typed
// engine.ErrSnapshotVersion at every restore entry point — no panic, no
// partial restore. The five fixtures were written by this repo's
// boxed-state era (before the columnar store): bare-gob engine
// snapshots, a 3-shard parallel envelope of them, and a version-0
// server checkpoint (two SUM queries, 4 shards, factors on, reorder
// bound 4). Restoring them was dropped by decision (ROADMAP item 3);
// they stay committed as negative fixtures.
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
			_, err := engine.Restore(original(t, fn), &stream.CountingSink{}, data)
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
		{"../parallel/testdata/snapshot_v1_3shards_sum.bin", func(t *testing.T, data []byte) error {
			_, err := parallel.Restore(original(t, agg.Sum), &stream.CountingSink{}, data)
			return err
		}},
		{"testdata/checkpoint_v1_two_queries.bin", restoreMustNotMutate},
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
