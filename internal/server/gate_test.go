package server

import (
	"errors"
	"testing"

	"factorwindows/internal/chaos"
	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
)

// gateEntries names the mutating entry points of TestMutationGate's
// table, in column order. Each call's arguments would succeed on a
// healthy server: what refuses it is the server's state alone.
var gateEntries = []struct {
	name string
	call func(s *Server, spare, other, first string) error
}{
	{"Register", func(s *Server, _, _, _ string) error {
		_, err := s.Register("r", `SELECT k, SUM(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 6))`)
		return err
	}},
	{"Unregister", func(s *Server, _, _, _ string) error { return s.Unregister("g") }},
	{"Replan", func(s *Server, _, _, _ string) error { return s.Replan(0) }},
	{"Ingest", func(s *Server, _, _, _ string) error {
		_, err := s.Ingest([]stream.Event{{Time: 300, Key: 1, Value: 1}})
		return err
	}},
	{"AddWorker", func(s *Server, spare, _, _ string) error { return s.AddWorker(spare) }},
	{"MoveShard", func(s *Server, _, other, _ string) error { return s.MoveShard(0, other) }},
	{"DrainWorker", func(s *Server, _, _, first string) error { return s.DrainWorker(first) }},
	{"Checkpoint", func(s *Server, _, _, _ string) error {
		_, err := s.Checkpoint()
		return err
	}},
	{"Snapshot", func(s *Server, _, _, _ string) error {
		_, err := s.Snapshot()
		return err
	}},
}

// gateTable is the refusal each entry point (gateEntries' columns) owes
// each server state: the errors.Is sentinel, or nil for success. Every
// state but its own condition is the healthy server's — durable, on two
// workers, one live query.
var gateTable = []struct {
	state string
	want  [9]error
}{
	//                Register     Unregister   Replan       Ingest       AddWorker    MoveShard    DrainWorker  Checkpoint   Snapshot
	{"healthy", [9]error{nil, nil, nil, nil, nil, nil, nil, nil, nil}},
	{"closed", [9]error{ErrClosed, ErrClosed, ErrClosed, ErrClosed, ErrClosed, ErrClosed, ErrClosed, ErrClosed, ErrClosed}},
	{"wal-degraded", [9]error{ErrDegraded, ErrDegraded, ErrDegraded, ErrDegraded, nil, nil, nil, nil, ErrDegraded}},
	{"engine-failed", [9]error{nil, nil, nil, ErrEngine, nil, ErrEngine, ErrEngine, ErrEngine, ErrEngine}},
	{"no-pipeline", [9]error{nil, ErrNotFound, ErrNotFound, nil, nil, ErrConflict, nil, nil, nil}},
	{"not-distributed", [9]error{nil, nil, nil, nil, ErrConflict, ErrConflict, ErrConflict, nil, nil}},
	{"not-durable", [9]error{nil, nil, nil, nil, nil, nil, nil, nil, ErrNotFound}},
}

// gateServer builds a fresh server in one of gateTable's states and
// returns it with the spare worker AddWorker admits, the worker
// MoveShard targets, and the worker DrainWorker retires.
func gateServer(t *testing.T, state string) (s *Server, spare, other, first string) {
	t.Helper()
	inj := chaos.NewInjector(48, chaos.Spec{})
	cfg := Config{Shards: 2, Durable: true, WALDir: t.TempDir(),
		Fsync: wal.FsyncEvery, WALFS: chaos.WrapFS(nil, inj)}
	addrs, _ := startShardWorkers(t, 3)
	cfg.Workers = addrs[:2]
	switch state {
	case "not-distributed":
		cfg.Workers = nil
	case "not-durable":
		cfg.Durable, cfg.WALDir, cfg.WALFS = false, "", nil
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() }) // waits out an async snapshot write
	if state != "no-pipeline" {
		if _, err := s.Register("g", `SELECT k, SUM(v) FROM s GROUP BY k, Windows(HoppingWindow(tick, 12, 6))`); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest([]stream.Event{{Time: 100, Key: 0, Value: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	switch state {
	case "closed":
		s.Close()
	case "wal-degraded":
		inj.ForceFail("write", 1<<20)
		if _, err := s.Ingest([]stream.Event{{Time: 101, Key: 0, Value: 1}}); !errors.Is(err, ErrDegraded) {
			t.Fatalf("ingest onto a dead log: %v, want ErrDegraded", err)
		}
	case "engine-failed":
		// The poison path a shard failure takes, entered directly: a
		// remote shard's failure report races its connection's close, so
		// sabotaging a worker would fail over about as often as poison.
		s.mu.Lock()
		err := s.poisonLocked(errors.New("injected shard failure"))
		s.mu.Unlock()
		if !errors.Is(err, ErrEngine) {
			t.Fatalf("poison path: %v, want ErrEngine", err)
		}
	}
	return s, addrs[2], addrs[1], addrs[0]
}

// TestMutationGate pins which refusal every mutating entry point owes
// every server state: each cell runs one entry point against a fresh
// server in one state and checks the errors.Is sentinel, or success.
func TestMutationGate(t *testing.T) {
	for _, row := range gateTable {
		for i, entry := range gateEntries {
			t.Run(row.state+"/"+entry.name, func(t *testing.T) {
				s, spare, other, first := gateServer(t, row.state)
				err := entry.call(s, spare, other, first)
				if want := row.want[i]; want == nil && err != nil {
					t.Fatalf("%s on a %s server: %v, want success", entry.name, row.state, err)
				} else if !errors.Is(err, want) {
					t.Fatalf("%s on a %s server: %v, want %v", entry.name, row.state, err, want)
				}
			})
		}
	}
}
