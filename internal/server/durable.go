// Durability integration: the serving layer over internal/wal.
//
// A durable server appends every accepted ingest batch and registry
// mutation to the write-ahead log before acking the client, and
// periodically captures a snapshot that is written asynchronously off
// the ingest path. A snapshot is the server checkpoint record with its
// result rings filled in (checkpoint.go), and the WAL stamps the file
// with the offset it covers under its checksum. Recovery in Open is
//
//	load newest valid snapshot → open + verify the log → restore the
//	snapshot → replay records at/after its offset → serve
//
// and is byte-identical to an uninterrupted run: ordered drain plus the
// uniform ingest chunking make ring contents a pure function of the
// Ingest-call sequence, one WAL record preserves exactly one live
// Ingest call, and the snapshot carries the ring sequence state, so
// both the NDJSON and the binary frame encodings of every result
// stream come out bit-for-bit the same after a crash. Adaptive
// re-plans are deliberately not logged: they are a deterministic
// function of the replayed batch sequence and re-derive on their own.
package server

import (
	"encoding/json"
	"fmt"

	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
	"factorwindows/internal/wire"
)

// walControl is the JSON payload of a control record: one logged
// registry mutation.
type walControl struct {
	Op  string `json:"op"` // register | unregister | replan
	ID  string `json:"id,omitempty"`
	SQL string `json:"sql,omitempty"`
	Eta int64  `json:"eta,omitempty"`
}

// snapshotsKept is how many snapshots survive pruning: the newest plus
// one fallback generation.
const snapshotsKept = 2

// Open builds a server, recovering durable state from cfg.WALDir when
// cfg.Durable is set: the newest valid snapshot is restored, the log's
// manifest chain and sealed segments are verified, the tail at/after
// the snapshot offset is replayed through the regular ingest path, and
// only then does the server start appending. Corruption anywhere in
// the sealed history or the snapshot is an error — never a silent
// partial replay.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if !cfg.Durable {
		return s, nil
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("server: Durable requires WALDir")
	}
	snapOff, snapData, err := wal.LatestSnapshot(cfg.WALFS, cfg.WALDir)
	if err != nil {
		return nil, fmt.Errorf("server: recovering snapshot: %w", err)
	}
	log, err := wal.Open(wal.Options{
		Dir:           cfg.WALDir,
		Fsync:         cfg.Fsync,
		FsyncInterval: cfg.FsyncInterval,
		SegmentBytes:  cfg.WALSegmentBytes,
		MinOffset:     snapOff,
		FS:            cfg.WALFS,
		RetryAttempts: cfg.WALRetries,
		RetryBackoff:  cfg.WALRetryBackoff,
	})
	if err != nil {
		return nil, err
	}
	s.wal = log
	s.walReplaying = true
	if snapData != nil {
		if err := s.restoreCheckpoint(snapData, true); err != nil {
			log.Close(false)
			return nil, fmt.Errorf("server: restoring snapshot: %w", err)
		}
	}
	if err := log.Replay(snapOff, s.applyRecord); err != nil {
		log.Close(false)
		return nil, fmt.Errorf("server: replaying wal: %w", err)
	}
	s.mu.Lock()
	s.walReplaying = false
	s.lastSnapOffset = snapOff
	s.mu.Unlock()
	return s, nil
}

// applyRecord replays one log record through the same code paths the
// live request took, under the walReplaying guard so nothing is
// re-appended.
func (s *Server) applyRecord(rec wal.Record) error {
	switch rec.Frame.Kind {
	case wire.KindEvents:
		s.replayBatch = rec.Frame.AppendEvents(s.replayBatch[:0])
		if _, err := s.Ingest(s.replayBatch); err != nil {
			return fmt.Errorf("record %d: %w", rec.Offset, err)
		}
		return nil
	case wire.KindControl:
		var op walControl
		if err := json.Unmarshal(rec.Frame.Control(), &op); err != nil {
			return fmt.Errorf("record %d: bad control payload: %w", rec.Offset, err)
		}
		switch op.Op {
		case "register":
			if _, err := s.Register(op.ID, op.SQL); err != nil {
				return fmt.Errorf("record %d: register %q: %w", rec.Offset, op.ID, err)
			}
		case "unregister":
			if err := s.Unregister(op.ID); err != nil {
				return fmt.Errorf("record %d: unregister %q: %w", rec.Offset, op.ID, err)
			}
		case "replan":
			if err := s.Replan(op.Eta); err != nil {
				return fmt.Errorf("record %d: replan: %w", rec.Offset, err)
			}
		default:
			return fmt.Errorf("record %d: unknown control op %q", rec.Offset, op.Op)
		}
		return nil
	default:
		return fmt.Errorf("record %d: unexpected frame kind %d", rec.Offset, rec.Frame.Kind)
	}
}

// stageEventsLocked appends one accepted ingest batch to the log.
// Callers hold s.mu — staging under the same lock that serializes the
// in-memory apply is what makes log order equal application order —
// and Wait on the returned commit only after releasing it, so
// concurrent clients' records share one group-commit fsync.
func (s *Server) stageEventsLocked(events []stream.Event) (*wal.Commit, error) {
	if s.wal == nil || s.walReplaying || len(events) == 0 {
		return nil, nil
	}
	c, err := s.wal.Append(events)
	if err != nil {
		s.walErr = err
		return nil, fmt.Errorf("server: %w: wal append: %v", ErrDegraded, err)
	}
	if s.cfg.Fsync != wal.FsyncEvery {
		// Only fsync=every holds the ack for the group commit; otherwise
		// the ack is non-durable by contract, and a write failure
		// fail-stops the next mutation through the gate.
		return nil, nil
	}
	return c, nil
}

// stageControlLocked appends one applied registry mutation. Same
// locking contract as stageEventsLocked.
func (s *Server) stageControlLocked(op walControl) (*wal.Commit, error) {
	if s.wal == nil || s.walReplaying {
		return nil, nil
	}
	payload, err := json.Marshal(op)
	if err != nil {
		return nil, fmt.Errorf("server: encoding control record: %w", err)
	}
	c, err := s.wal.AppendControl(payload)
	if err != nil {
		s.walErr = err
		return nil, fmt.Errorf("server: %w: wal append: %v", ErrDegraded, err)
	}
	return c, nil
}

// captureSnapshotLocked serializes the durable snapshot payload and
// the offset it covers. Callers hold s.mu with no batch in flight, so
// the state is consistent exactly at the log's next-record offset.
func (s *Server) captureSnapshotLocked() (offset int64, data []byte, err error) {
	data, err = s.checkpointLocked(true)
	return s.wal.NextOffset(), data, err
}

// Snapshot captures the durable snapshot now and writes it
// asynchronously (POST /checkpoint lands here). It returns the offset
// the snapshot covers; the write happens off the ingest path, and its
// completion shows up in /stats as last_snapshot_offset. At most one
// write is in flight; a second request while busy returns ErrConflict.
func (s *Server) Snapshot() (int64, error) {
	var offset int64
	err := s.mutate(refuseDegraded, func() error {
		if s.wal == nil {
			return fmt.Errorf("%w: server is not durable", ErrNotFound)
		}
		if s.snapBusy {
			return fmt.Errorf("%w: a snapshot write is already in flight", ErrConflict)
		}
		o, data, err := s.captureSnapshotLocked()
		if err != nil {
			return err
		}
		s.startSnapshotWriteLocked(o, data)
		offset = o
		return nil
	})
	if err != nil {
		return 0, err
	}
	return offset, nil
}

// maybeSnapshotLocked auto-triggers a snapshot when SnapshotEvery
// records have accumulated since the last one and no write is in
// flight. Capture runs under the lock the caller already holds; the
// file write does not. Capture failures are recorded for /stats, not
// raised — the ingest that tripped the threshold already succeeded.
func (s *Server) maybeSnapshotLocked() {
	if s.wal == nil || s.walReplaying || s.snapBusy || s.cfg.SnapshotEvery <= 0 {
		return
	}
	if s.wal.NextOffset()-s.lastSnapOffset < s.cfg.SnapshotEvery {
		return
	}
	offset, data, err := s.captureSnapshotLocked()
	if err != nil {
		s.snapErr = err
		return
	}
	s.startSnapshotWriteLocked(offset, data)
}

// startSnapshotWriteLocked hands one captured snapshot to the async
// writer. Callers hold s.mu and have checked snapBusy.
func (s *Server) startSnapshotWriteLocked(offset int64, data []byte) {
	s.snapBusy = true
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		err := s.writeSnapshot(offset, data)
		s.mu.Lock()
		s.snapBusy = false
		s.snapErr = err
		if err == nil && offset > s.lastSnapOffset {
			s.lastSnapOffset = offset
		}
		s.mu.Unlock()
	}()
}

// writeSnapshot persists one captured snapshot and retires the log
// prefix it covers. It takes no locks; callers own the lastSnapOffset
// bookkeeping.
func (s *Server) writeSnapshot(offset int64, data []byte) error {
	if err := wal.WriteSnapshot(s.cfg.WALFS, s.cfg.WALDir, offset, data); err != nil {
		return err
	}
	if err := s.wal.TruncateBefore(offset); err != nil {
		return err
	}
	return wal.PruneSnapshots(s.cfg.WALFS, s.cfg.WALDir, snapshotsKept)
}

// restoreBarrierLocked persists the just-restored state synchronously:
// a client-driven restore rewrites the server wholesale, so records
// logged before it no longer describe the state — a crash before a new
// snapshot lands would replay them onto the restored state and corrupt
// it. The barrier fails closed: if the snapshot cannot be written, the
// durable path fail-stops rather than serve un-recoverable state.
// Callers hold s.mu.
func (s *Server) restoreBarrierLocked() error {
	offset, data, err := s.captureSnapshotLocked()
	if err == nil {
		err = s.writeSnapshot(offset, data)
	}
	if err != nil {
		s.walErr = fmt.Errorf("restore durability barrier: %w", err)
		return fmt.Errorf("server: %w", s.walErr)
	}
	if offset > s.lastSnapOffset {
		s.lastSnapOffset = offset
	}
	return nil
}

// Shutdown seals the durable state for a clean exit: a final snapshot
// at the current offset, the active segment sealed into the manifest,
// and every file closed. It returns the first flush failure so the
// process can exit non-zero — a clean-looking exit must not hide an
// unflushed log. Non-durable servers just Close.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	var (
		offset  int64
		data    []byte
		capErr  error
		capture bool
	)
	if s.wal != nil && s.refuseLocked(refuseDegraded) == nil {
		offset, data, capErr = s.captureSnapshotLocked()
		capture = capErr == nil
	}
	s.mu.Unlock()
	s.Close()
	s.snapWG.Wait()
	firstErr := capErr
	if capture {
		if err := s.writeSnapshot(offset, data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.wal != nil {
		if err := s.wal.Close(true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
