package server

import (
	"os"
	"path/filepath"
	"testing"

	"factorwindows/internal/stream"
)

// FuzzRestoreCheckpoint feeds arbitrary bytes to the decoder behind
// POST /restore — the server checkpoint, and through it the reorder
// state, the sharded snapshot envelope, the engine snapshots and the
// sketch blobs inside them. The contract: RestoreCheckpoint returns
// success or an error, nothing downstream of it panics, and a server
// that refused (or only partly accepted) a blob keeps serving — it
// still registers, ingests and reports stats. Seeds: the committed PR 13 mid-disorder fixture, a
// fresh checkpoint of sketch-backed queries with open instances, the
// same checkpoint with exports where its engine snapshots belong, and
// truncations of all three.
func FuzzRestoreCheckpoint(f *testing.F) {
	cfg := Config{Shards: 2, Factors: true, ReorderBound: 16}
	fixture, err := os.ReadFile(filepath.Join("testdata", "checkpoint_pr13_mid_disorder.bin"))
	if err != nil {
		f.Fatal(err)
	}
	src := New(cfg)
	if _, err := src.Register("p", pctQuery); err != nil {
		f.Fatal(err)
	}
	if _, err := src.Ingest(genEvents(300, 5, 11)); err != nil {
		f.Fatal(err)
	}
	sketched, err := src.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	exportForm, _ := exportFormCheckpoint(f, src)
	src.Close()
	for _, blob := range [][]byte{fixture, sketched, exportForm} {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(cfg)
		defer s.Close()
		rerr := s.RestoreCheckpoint(data)
		if rerr != nil {
			if _, err := s.Register("probe", demoQuery1); err != nil {
				// The blob's query set was admitted before its state failed
				// and may legitimately conflict with the probe (another
				// aggregate, the same ID); a server that answers is serving.
				t.Logf("register after failed restore: %v", err)
			}
		}
		// An accepted blob may still hold state the engine rejects at run
		// time; that surfaces as an error here (a poisoned shard), which
		// is the contract. After a refused blob nothing may be wrong.
		_, ierr := s.Ingest([]stream.Event{{Time: 1 << 20, Key: 1, Value: 1}, {Time: 1 << 21, Key: 2, Value: 1}})
		if rerr != nil && ierr != nil {
			t.Fatalf("restore failed (%v) and left the server unable to ingest: %v", rerr, ierr)
		}
		s.StatsNow()
	})
}
