// The order point: every mutation passes one gate, applies under s.mu
// and ends in the one publish step — the server's only runner barrier —
// so the runner is quiescent whenever s.mu is free; a mutation that
// logged a WAL record then awaits its commit with s.mu released.

package server

import (
	"fmt"

	"factorwindows/internal/reorder"
	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
)

// refusal is a set of conditions the gate refuses a mutation on, beyond
// the server being closed, which refuses every mutation (the zero set).
type refusal uint8

const (
	refuseLocal    refusal = 1 << iota // single-process: no topology to reshape
	refuseDegraded                     // the durable log has fail-stopped
	refuseEngine                       // the last pipeline failed
)

// refuseLocked is the gate: it says why the server refuses a mutation
// subject to r, or nil, checking closed, local, degraded and engine in
// that order. Refusing what the log cannot hold keeps the recovery
// guarantee; ErrDegraded maps to 503 with a Retry-After while reads
// keep serving. Callers hold s.mu.
func (s *Server) refuseLocked(r refusal) error {
	switch {
	case s.closed:
		return ErrClosed
	case r&refuseLocal != 0 && len(s.workers) == 0:
		return fmt.Errorf("%w: server is not distributed (no workers configured)", ErrConflict)
	case r&refuseDegraded != 0 && s.walErr != nil:
		return fmt.Errorf("server: %w: %v (ingest sheds; reads still serve; restart to recover)", ErrDegraded, s.walErr)
	case r&refuseEngine != 0 && s.engineErr != nil:
		return fmt.Errorf("%w: %v (re-register queries or restore a valid checkpoint)", ErrEngine, s.engineErr)
	}
	return nil
}

// commit runs one mutation through the order point: order applies it
// under s.mu, then, with s.mu released so concurrent clients' records
// share one group-commit fsync, commit awaits the WAL record apply
// staged (nil: none) and reports whether it was fsynced. A commit
// failure fail-stops the durable path: the in-memory state has already
// advanced past what the log can ever replay, so the gate refuses every
// later logged mutation until a restart recovers.
func (s *Server) commit(r refusal, apply func() (*wal.Commit, error), settle func() error) (durable bool, err error) {
	c, err := s.order(r, apply, settle)
	if err != nil || c == nil {
		return false, err
	}
	if durable, err = c.Wait(); err != nil {
		s.mu.Lock()
		if s.walErr == nil {
			s.walErr = err
		}
		s.mu.Unlock()
		return false, fmt.Errorf("server: %w: wal commit: %v", ErrDegraded, err)
	}
	return durable, nil
}

// order is commit's critical section: the gate refuses the mutation per
// r, apply applies it, publish makes what it handed the runner visible,
// and settle (nil: none) runs what needs the published pipeline. A
// failed publish — a poisoned pipeline — outranks apply's own error.
func (s *Server) order(r refusal, apply func() (*wal.Commit, error), settle func() error) (*wal.Commit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refuseLocked(r); err != nil {
		return nil, err
	}
	c, err := apply()
	if perr := s.publishLocked(); perr != nil {
		return nil, perr
	}
	if err == nil && settle != nil {
		err = settle()
	}
	return c, err
}

// mutate is commit for a mutation that logs nothing.
func (s *Server) mutate(r refusal, apply func() error) error {
	_, err := s.commit(r, func() (*wal.Commit, error) { return nil, apply() }, nil)
	return err
}

// publishLocked is the order point's last step: it barriers the runner
// on everything handed to it — a batch, a watermark, or a backlog a
// smaller reorder cap trimmed while a pipeline was built — delivering
// every completed result to its ring, then takes the poison path if a
// shard failed. Callers hold s.mu.
func (s *Server) publishLocked() error {
	if s.pipe == nil {
		return nil
	}
	s.pipe.runner.Barrier()
	if err := s.pipe.runner.Err(); err != nil {
		return s.poisonLocked(err)
	}
	return nil
}

// poisonLocked tears the pipeline down after the runner reported a
// poisoned shard. A poisoned shard means the epoch's output is
// incomplete and its state unusable; tear the pipeline down rather
// than keep serving wrong answers, and report the failure
// persistently. Only the engine is compromised: the reorder buffer's
// sealed horizon is still sound, and carrying it keeps the next epoch
// (after re-registration) from delivering partial straddling windows
// as exact. Callers hold s.mu with a live pipeline.
func (s *Server) poisonLocked(err error) error {
	carried := s.pipe.buf.Snapshot()
	s.teardown()
	s.carry = &carried
	s.engineErr = err
	return fmt.Errorf("%w: %v (pipeline reset; re-register queries or restore a valid checkpoint)",
		ErrEngine, err)
}

// onLate counts events beyond the reorder bound. It runs inside
// Buffer.Push, which the server only calls under s.mu.
func (s *Server) onLate(stream.Event) { s.late++ }

// IngestStatus reports the outcome of one ingest call. Durable is true
// only when the batch's WAL record was fsynced before the ack (a
// durable server under the every policy); false means the batch is
// accepted in memory — and, on a durable server with a lax fsync
// policy, written but not yet synced.
type IngestStatus struct {
	Accepted int   `json:"accepted"`
	Dropped  int   `json:"dropped"` // discarded: no live queries
	Late     int64 `json:"late"`    // cumulative, server lifetime
	Buffered int   `json:"buffered"`
	Epoch    int64 `json:"epoch"`
	Durable  bool  `json:"durable"`
}

// Ingest pushes one batch of events into the pipeline. Events may be out
// of order up to the configured bound; negative timestamps are rejected.
// Batches from concurrent clients serialize; disorder across them is
// tolerated like any other disorder. On return, every result the batch
// completed is visible to readers (the runner is barriered), and on a
// durable server under fsync=every the batch's WAL record has been
// committed — the commit wait happens after the ingest lock is
// released, so concurrent clients' records coalesce into one fsync.
func (s *Server) Ingest(events []stream.Event) (IngestStatus, error) {
	for i := range events {
		if events[i].Time < 0 {
			return IngestStatus{}, fmt.Errorf("server: event %d has negative time %d", i, events[i].Time)
		}
	}
	var st IngestStatus
	var sealed int64
	durable, err := s.commit(refuseDegraded|refuseEngine, func() (c *wal.Commit, err error) {
		sealed, c, err = s.sequenceLocked(events)
		return c, err
	}, func() (err error) {
		st, err = s.settleLocked(events, sealed)
		return err
	})
	if err != nil {
		return IngestStatus{}, err
	}
	st.Durable = durable
	return st, nil
}

// sequenceLocked is Ingest's apply step: stage the batch into the WAL
// (log order = application order), push it through the reorder buffer,
// and broadcast the release horizon as a watermark, so shards whose
// keys went quiet still fire their completed windows. It returns the
// release horizon from before the push.
func (s *Server) sequenceLocked(events []stream.Event) (sealed int64, c *wal.Commit, err error) {
	if c, err = s.stageEventsLocked(events); err != nil {
		return 0, nil, err
	}
	s.ingested += int64(len(events))
	if s.pipe == nil {
		s.dropped += int64(len(events))
		return 0, c, nil
	}
	sealed = s.pipe.buf.Released()
	s.pipe.buf.Push(events)
	if rel := s.pipe.buf.Released(); rel > reorder.NoRelease {
		s.pipe.runner.Advance(rel)
	}
	return sealed, c, nil
}

// settleLocked is Ingest's step after publish: on the barriered,
// healthy pipeline it folds the batch into the adaptive observation
// window (which may re-plan in place), reads the batch's status, and
// auto-snapshots when due.
func (s *Server) settleLocked(events []stream.Event, sealed int64) (IngestStatus, error) {
	st := IngestStatus{Accepted: len(events)}
	if s.pipe == nil {
		st.Accepted, st.Dropped = 0, len(events)
	} else if s.cfg.Adaptive {
		if err := s.observe(events, sealed); err != nil {
			return IngestStatus{}, err
		}
	}
	st.Late, st.Epoch = s.late, s.epoch
	if s.pipe != nil {
		st.Buffered = s.pipe.buf.Buffered()
	}
	s.maybeSnapshotLocked()
	return st, nil
}
