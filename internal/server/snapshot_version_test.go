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
// they stay committed as negative fixtures. The sixth case is built in
// place: an export as it was encoded before exports carried a header (a
// bare gob stream — what a worker of the previous build would put in a
// hello), which must fail the same typed way at both doors an export
// comes through.
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
			state, err := parallel.DecodeSnapshot(data)
			if err == nil {
				_, _, err = parallel.Resume(original(t, agg.Sum), &stream.CountingSink{}, 0, state, 0)
			}
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
	t.Run("headerless_export", func(t *testing.T) {
		p := original(t, agg.Sum)
		r, err := engine.New(p, &stream.CountingSink{})
		if err != nil {
			t.Fatal(err)
		}
		r.Process([]stream.Event{{Time: 1, Key: 7, Value: 1.5}, {Time: 2, Key: 8, Value: 6}})
		ex, err := r.ExportCanonical(3)
		if err != nil {
			t.Fatal(err)
		}
		var bare bytes.Buffer
		if err := gob.NewEncoder(&bare).Encode(ex); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.DecodeExport(bare.Bytes()); !errors.Is(err, engine.ErrSnapshotVersion) {
			t.Fatalf("DecodeExport error = %v, want one wrapping engine.ErrSnapshotVersion", err)
		}
		if _, _, err := engine.Resume(p, &stream.CountingSink{}, engine.Encoded(bare.Bytes()), 0); !errors.Is(err, engine.ErrSnapshotVersion) {
			t.Fatalf("Resume error = %v, want one wrapping engine.ErrSnapshotVersion", err)
		}
		// The same export under its header resumes.
		blob, err := engine.EncodeExport(ex)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.Resume(p, &stream.CountingSink{}, engine.Encoded(blob), 3); err != nil {
			t.Fatalf("Resume of a headed export: %v", err)
		}
	})
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
