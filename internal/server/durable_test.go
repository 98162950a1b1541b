package server

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
)

// durableConfig is the baseline durable server configuration the
// recovery tests share. FsyncEvery keeps every acked batch on disk, so
// an abandoned server models a crash precisely.
func durableConfig(dir string) Config {
	return Config{
		Shards:       3,
		Factors:      true,
		ReorderBound: 4,
		Durable:      true,
		WALDir:       dir,
		Fsync:        wal.FsyncEvery,
	}
}

func openDurable(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// allRows reads a query's full ring contents including sequence
// numbers — recovery promises byte-identical streams, so Seq matters.
func allRows(t *testing.T, s *Server, id string) []ResultRow {
	t.Helper()
	rows, _, err := s.Results(id, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// ingestScript drives the same batched ingest sequence into any server.
func ingestScript(t *testing.T, s *Server, events []stream.Event, batch int) {
	t.Helper()
	for i := 0; i < len(events); i += batch {
		end := min(i+batch, len(events))
		if _, err := s.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRecoveryCleanShutdown: shutdown seals the log and writes a
// final snapshot; reopening reproduces the exact ring contents —
// sequence numbers included — of an uninterrupted reference server.
func TestDurableRecoveryCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(2500, 5, 11)

	ref := New(Config{Shards: 3, Factors: true, ReorderBound: 4})
	defer ref.Close()
	s1 := openDurable(t, durableConfig(dir))
	for _, s := range []*Server{ref, s1} {
		if _, err := s.Register("a", demoQuery1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Register("b", demoQuery2); err != nil {
			t.Fatal(err)
		}
		ingestScript(t, s, events, 300)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2 := openDurable(t, durableConfig(dir))
	defer s2.Shutdown()
	for _, id := range []string{"a", "b"} {
		want, got := allRows(t, ref, id), allRows(t, s2, id)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %s: recovered rows differ (ref %d rows, recovered %d)", id, len(want), len(got))
		}
	}
	// And the recovered server keeps working: further ingest matches too.
	more := genEvents(500, 5, 12)
	for i := range more {
		more[i].Time += events[len(events)-1].Time
	}
	ingestScript(t, ref, more, 120)
	ingestScript(t, s2, more, 120)
	if want, got := allRows(t, ref, "a"), allRows(t, s2, "a"); !reflect.DeepEqual(want, got) {
		t.Fatal("post-recovery ingest diverged from reference")
	}
}

// TestDurableRecoveryAfterCrash abandons the server without any
// shutdown path (the WAL files are simply left as the last fsync put
// them — what SIGKILL leaves behind) and recovers from the log alone.
func TestDurableRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	events := genEvents(2000, 5, 21)

	ref := New(Config{Shards: 3, Factors: true, ReorderBound: 4})
	defer ref.Close()
	s1 := openDurable(t, durableConfig(dir))
	for _, s := range []*Server{ref, s1} {
		if _, err := s.Register("a", demoQuery1); err != nil {
			t.Fatal(err)
		}
		ingestScript(t, s, events, 250)
	}
	// Crash: close the engine only. The log is not sealed, no final
	// snapshot is written; recovery must come from replay.
	s1.Close()

	s2 := openDurable(t, durableConfig(dir))
	defer s2.Shutdown()
	if want, got := allRows(t, ref, "a"), allRows(t, s2, "a"); !reflect.DeepEqual(want, got) {
		t.Fatalf("crash recovery rows differ (ref %d, recovered %d)", len(want), len(got))
	}
	st := s2.StatsNow()
	if st.Ingested != int64(len(events)) {
		t.Fatalf("recovered Ingested = %d, want %d", st.Ingested, len(events))
	}
}

// TestDurableControlReplay pins registry mutations through the log:
// register/unregister/manual-replan all reappear after a crash.
func TestDurableControlReplay(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, durableConfig(dir))
	if _, err := s1.Register("keep", demoQuery1); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Register("drop", demoQuery2); err != nil {
		t.Fatal(err)
	}
	events := genEvents(800, 5, 31)
	ingestScript(t, s1, events, 200)
	if err := s1.Unregister("drop"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Replan(64); err != nil {
		t.Fatal(err)
	}
	ingestScript(t, s1, events[:400], 100)
	s1.Close() // crash

	s2 := openDurable(t, durableConfig(dir))
	defer s2.Shutdown()
	qs := s2.Queries()
	if len(qs) != 1 || qs[0].ID != "keep" {
		t.Fatalf("recovered query set = %+v", qs)
	}
	st := s2.StatsNow()
	if st.Replans.Manual != 1 {
		t.Fatalf("recovered manual replans = %d, want 1", st.Replans.Manual)
	}
}

// TestDurableSnapshotAndTruncate: snapshots retire the covered log
// prefix yet recovery (snapshot + shorter tail) still matches the
// reference exactly — under the integer stream, and under the
// distributed suites' order-sensitive loads (float sums, compacting
// quantile sketches over nested windows): crash recovery resumes the
// same plan, so it must come from the operator-shaped snapshot, bit for
// bit. A window-shaped state form here would fail the last two.
func TestDurableSnapshotAndTruncate(t *testing.T) {
	for _, ld := range distLoads {
		t.Run(ld.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.SnapshotEvery = 4         // snapshot every few batches
			cfg.WALSegmentBytes = 4 << 10 // rotate often so truncation bites
			events, query, batch := genEvents(2400, 5, 41), demoQuery1, 150
			if ld.perTick != 0 {
				batches := ld.batches(41, 16, batch)
				events, query, batch = slices.Concat(batches[:16]...), ld.queries[0], len(batches[0])
			}

			ref := New(Config{Shards: 3, Factors: true, ReorderBound: 4})
			defer ref.Close()
			s1 := openDurable(t, cfg)
			for _, s := range []*Server{ref, s1} {
				if _, err := s.Register("a", query); err != nil {
					t.Fatal(err)
				}
				ingestScript(t, s, events, batch)
			}
			waitSnapshotIdle(t, s1)
			st := s1.StatsNow()
			if st.LastSnapshotOffset == 0 {
				t.Fatal("auto-snapshot never landed")
			}
			s1.Close() // crash after snapshots truncated the log prefix

			s2 := openDurable(t, cfg)
			defer s2.Shutdown()
			want, got := allRows(t, ref, "a"), allRows(t, s2, "a")
			if len(want) == 0 {
				t.Fatal("reference produced no rows; the property is vacuous")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("snapshot+tail recovery rows differ (ref %d, recovered %d)", len(want), len(got))
			}
		})
	}
}

// waitSnapshotIdle waits for any in-flight async snapshot write.
func waitSnapshotIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		busy := s.snapBusy
		s.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot write never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableIngestAckAndStats pins the client-visible durability
// surface: the durable ack field, the /stats counters, and the manual
// Snapshot trigger.
func TestDurableIngestAckAndStats(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	defer s.Shutdown()
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	st, err := s.Ingest(genEvents(100, 5, 51))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable {
		t.Fatal("FsyncEvery ingest acked durable=false")
	}

	stats := s.StatsNow()
	if !stats.Durable || stats.WALAppended < 2 || stats.WALFsyncs < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.WALLag == 0 {
		t.Fatal("WALLag zero before any snapshot")
	}

	off, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	waitSnapshotIdle(t, s)
	stats = s.StatsNow()
	if stats.LastSnapshotOffset != off || stats.WALLag != 0 {
		t.Fatalf("after snapshot: %+v (want last_snapshot_offset=%d, lag 0)", stats, off)
	}

	// Non-durable servers report 404-shaped errors from Snapshot.
	plain := New(Config{Shards: 1})
	defer plain.Close()
	if _, err := plain.Snapshot(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("plain Snapshot err = %v, want ErrNotFound", err)
	}
}

// TestDurableWALFailureFailStops: once a commit fails, every later
// mutation is rejected — the in-memory state has outrun what the log
// can replay, so serving on would silently void recovery.
func TestDurableWALFailureFailStops(t *testing.T) {
	dir := t.TempDir()
	ffs := newFailingFS()
	cfg := durableConfig(dir)
	cfg.WALFS = ffs
	s := openDurable(t, cfg)
	defer s.Close()
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(genEvents(50, 5, 61)); err != nil {
		t.Fatal(err)
	}

	ffs.fail.Store(true)
	if _, err := s.Ingest(genEvents(50, 5, 62)); err == nil {
		t.Fatal("ingest succeeded through a failed WAL commit")
	}
	// Fail-stopped: even after the filesystem heals, mutations stay
	// rejected until a restart re-runs recovery.
	ffs.fail.Store(false)
	if _, err := s.Ingest(genEvents(50, 5, 63)); err == nil {
		t.Fatal("ingest accepted on a fail-stopped durable server")
	}
	if _, err := s.Register("b", demoQuery2); err == nil {
		t.Fatal("register accepted on a fail-stopped durable server")
	}
	if st := s.StatsNow(); st.WALError == "" {
		t.Fatal("stats hide the sticky WAL error")
	}
}

// TestDurableRestoreBarrier: a client-driven restore rewrites the
// server wholesale, so the old log tail no longer describes the state.
// The barrier snapshot must make a crash right after the restore
// recover to the restored state, not a corrupted mix.
func TestDurableRestoreBarrier(t *testing.T) {
	// A plain server provides the checkpoint to restore.
	donor := New(Config{Shards: 3, Factors: true, ReorderBound: 4})
	defer donor.Close()
	if _, err := donor.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	donorEvents := genEvents(1200, 5, 71)
	ingestScript(t, donor, donorEvents, 300)
	cp, err := donor.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s1 := openDurable(t, durableConfig(dir))
	if _, err := s1.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	ingestScript(t, s1, genEvents(900, 5, 72), 300) // pre-restore history
	if err := s1.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	post := genEvents(400, 5, 73)
	for i := range post {
		post[i].Time += donorEvents[len(donorEvents)-1].Time
	}
	ingestScript(t, s1, post, 100)
	s1.Close() // crash without a clean shutdown

	// Reference: a plain server restored from the same checkpoint and
	// fed the same post-restore events. Restores reset the result rings,
	// so both sides start the same fresh sequence space.
	ref := New(Config{Shards: 3, Factors: true, ReorderBound: 4})
	defer ref.Close()
	if err := ref.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	ingestScript(t, ref, post, 100)

	s2 := openDurable(t, durableConfig(dir))
	defer s2.Shutdown()
	if want, got := allRows(t, ref, "a"), allRows(t, s2, "a"); !reflect.DeepEqual(want, got) {
		t.Fatalf("restore-barrier recovery differs (ref %d rows, recovered %d)", len(want), len(got))
	}
}
