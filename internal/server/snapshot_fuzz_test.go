package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"strings"
	"testing"

	"factorwindows/internal/stream"
)

// capturedSnapshot opens a durable server in a fresh directory, ingests
// until both queries' rings hold many runs and have evicted rows, and
// returns the payload a snapshot capture hands the WAL.
func capturedSnapshot(tb testing.TB, resultBuffer int) []byte {
	tb.Helper()
	cfg := durableConfig(tb.TempDir())
	cfg.ResultBuffer = resultBuffer
	s, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Shutdown()
	for id, q := range map[string]string{"a": demoQuery1, "b": demoQuery2} {
		if _, err := s.Register(id, q); err != nil {
			tb.Fatal(err)
		}
	}
	events := genEvents(3000, 7, 5)
	for off := 0; off < len(events); off += 250 {
		if _, err := s.Ingest(events[off : off+250]); err != nil {
			tb.Fatal(err)
		}
	}
	s.mu.Lock()
	_, data, err := s.captureSnapshotLocked()
	s.mu.Unlock()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// withRings decodes a checkpoint record, lets mutate change its rings,
// and encodes it again.
func withRings(tb testing.TB, data []byte, mutate func([]ringState)) []byte {
	tb.Helper()
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		tb.Fatal(err)
	}
	if len(cp.Rings) == 0 || len(cp.Rings[0].Runs) < 2 {
		tb.Fatalf("capture holds %d rings; the seeds need runs to break", len(cp.Rings))
	}
	mutate(cp.Rings)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(cp); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// ringBreakers are the ring states validate must refuse.
var ringBreakers = map[string]func([]ringState){
	"runs short of the keys": func(r []ringState) { r[0].Runs[0].N-- },
	"runs past the keys":     func(r []ringState) { r[0].Runs[0].N++ },
	"empty run":              func(r []ringState) { r[0].Runs[1].N += r[0].Runs[0].N; r[0].Runs[0].N = 0 },
	"negative run": func(r []ringState) {
		r[0].Runs[1].N += r[0].Runs[0].N + 1
		r[0].Runs[0].N = -1
	},
	"values short of the keys": func(r []ringState) { r[0].Vals = r[0].Vals[1:] },
	"rows below sequence zero": func(r []ringState) { r[0].NextSeq = int64(len(r[0].Keys)) - 1 },
}

// TestRestoreSnapshotRejectsBadRings: a durable snapshot whose ring
// state does not describe a ring fails recovery with errRingState
// before anything is touched — the restoring server keeps its registry
// and its stats.
func TestRestoreSnapshotRejectsBadRings(t *testing.T) {
	data := capturedSnapshot(t, 64)
	for name, mutate := range ringBreakers {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Shards: 3, Factors: true, ReorderBound: 4})
			defer s.Close()
			if _, err := s.Register("mine", demoQuery1); err != nil {
				t.Fatal(err)
			}
			queries, stats := s.Queries(), s.StatsNow()
			err := s.restoreCheckpoint(withRings(t, data, mutate), true)
			if !errors.Is(err, errRingState) {
				t.Fatalf("restore error = %v, want one wrapping errRingState", err)
			}
			if got := s.Queries(); !reflect.DeepEqual(got, queries) || !reflect.DeepEqual(s.StatsNow(), stats) {
				t.Fatalf("refused restore changed the server: %+v", got)
			}
		})
	}
	// The untouched capture restores, rings included.
	s := New(Config{Shards: 3, Factors: true, ReorderBound: 4})
	defer s.Close()
	if err := s.restoreCheckpoint(data, true); err != nil {
		t.Fatal(err)
	}
	if rows := allRows(t, s, "a"); len(rows) == 0 || rows[0].Seq == 0 {
		t.Fatalf("restored ring holds %d rows, the oldest not evicted", len(rows))
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to WAL recovery's restore —
// the checkpoint record with its result rings, which crash recovery
// imports and POST /restore does not. Seeds: a real capture, its
// truncations, and the capture with each ring breaker applied. The
// contract: no panic; every failure is an error the server reports
// ("server: …", wrapping engine.ErrSnapshotVersion, ErrConflict or
// errRingState where those apply), after which the server still
// serves; and a success leaves rings that export a valid state and
// answer reads.
func FuzzRestoreSnapshot(f *testing.F) {
	data := capturedSnapshot(f, 64)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-1])
	for _, mutate := range ringBreakers {
		f.Add(withRings(f, data, mutate))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A smaller ResultBuffer than the capture's, so imports trim.
		s := New(Config{Shards: 3, Factors: true, ReorderBound: 4, ResultBuffer: 40})
		defer s.Close()
		if err := s.restoreCheckpoint(data, true); err != nil {
			if !strings.HasPrefix(err.Error(), "server: ") {
				t.Fatalf("restore failed with an error the server did not report: %v", err)
			}
		} else {
			for _, q := range s.Queries() {
				rg, err := s.ringOf(q.ID)
				if err != nil {
					t.Fatal(err)
				}
				if err := rg.exportState(q.ID).validate(); err != nil {
					t.Fatalf("restored ring %s exports an invalid state: %v", q.ID, err)
				}
				if first, next := rg.window(); next-first > 40 || first < 0 {
					t.Fatalf("restored ring %s spans [%d, %d) in a ring of 40", q.ID, first, next)
				}
				if _, _, err := s.Results(q.ID, -1, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.Ingest([]stream.Event{{Time: 1 << 20, Key: 1, Value: 1}}); err != nil {
			t.Logf("ingest after restore: %v", err)
		}
		s.StatsNow()
	})
}
