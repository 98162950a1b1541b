package server

import (
	"os"
	"path/filepath"
	"testing"

	"factorwindows/internal/stream"
)

// FuzzRestoreCheckpoint feeds arbitrary bytes to the decoder behind
// POST /restore — the server checkpoint, and through it the reorder
// state, the per-shard engine snapshots and the sketch blobs inside
// them. The contract: RestoreCheckpoint returns success or an error,
// nothing downstream of it panics, and a server that refused (or only
// partly accepted) a blob keeps serving — it still registers, ingests
// and reports stats. Seeds, each with two truncations, all over FWSNAP4
// shard states: the current generation's mid-disorder checkpoint (the
// shape of the committed heap-era fixture: events still held back), a
// checkpoint of sketch-backed queries with open instances, one whose
// shard states belong to another plan than its queries rebuild to, and
// a durable snapshot capture, rings included; plus two committed
// previous generations, the heap-era fixture and a current checkpoint
// over FWSNAP3 shard states.
func FuzzRestoreCheckpoint(f *testing.F) {
	cfg := Config{Shards: 2, Factors: true, ReorderBound: 16}
	var fixtures [][]byte
	for _, name := range []string{"checkpoint_pr13_mid_disorder.bin", "checkpoint_v4_fwsnap3.bin"} {
		fixture, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		fixtures = append(fixtures, fixture)
	}
	disorder := New(cfg)
	for id, q := range map[string]string{"a": demoQuery1, "b": demoQuery2} {
		if _, err := disorder.Register(id, q); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := disorder.Ingest(disorderedFixtureEvents()[:700]); err != nil {
		f.Fatal(err)
	}
	midDisorder, err := disorder.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	if st := disorder.StatsNow(); st.Buffered == 0 {
		f.Fatal("the mid-disorder seed holds no pending events")
	}
	disorder.Close()
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
	src.Close()
	flat := New(Config{Shards: 2, ReorderBound: 16})
	for id, q := range map[string]string{"a": demoQuery1, "b": demoQuery2} {
		if _, err := flat.Register(id, q); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := flat.Ingest(genEvents(300, 5, 12)); err != nil {
		f.Fatal(err)
	}
	otherPlan, _ := otherPlanCheckpoint(f, flat)
	flat.Close()
	for _, blob := range [][]byte{midDisorder, sketched, otherPlan, capturedSnapshot(f, 64)} {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
	}
	for _, fixture := range fixtures {
		f.Add(fixture)
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
