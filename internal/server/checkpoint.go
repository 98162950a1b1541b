// Server-level checkpointing: the registered query set, the reorder
// buffer's pending events and sealed horizon, and every shard engine's
// open window state — including per-window emit floors and in-flight
// migrated (frozen) state — in one blob. Restoring onto a fresh server
// resumes the stream exactly where the snapshot left it — the
// serving-layer counterpart of engine.Snapshot/Restore.
//
// Result rings are transient delivery buffers and are not checkpointed;
// restored queries start a fresh sequence space. The optimizer options
// (including the adaptive cost-model η) and shard count are part of the
// snapshot's identity: the plan is rebuilt from the query SQL and must
// fingerprint-match the shard engines, and key placement is a function
// of the shard count.

package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"factorwindows/internal/agg"
	"factorwindows/internal/engine"
	"factorwindows/internal/parallel"
	"factorwindows/internal/reorder"
)

// checkpointVersion is the one codec generation this build reads and
// writes: 3 since live plan migration (per-window exposed-result floors
// moved into the engine snapshots, and the cost-model η became part of
// the plan's identity). Any other version — the boxed-era blobs decode
// as 0, gob leaving the missing field zero — is rejected with
// engine.ErrSnapshotVersion before the server's state is touched.
const checkpointVersion = 3

// checkpoint is the gob-serialized server state.
type checkpoint struct {
	Version int
	Queries []checkpointQuery // sorted by ID
	NextID  int64
	Fn      agg.Fn
	HasFn   bool
	Factors bool
	// Param is the live set's finalize parameter (φ for PERCENTILE, k
	// for TOPK). Gob-optional: pre-sketch checkpoints omit it and decode
	// to 0, which is exactly the parameter their exact functions carry.
	Param    float64
	PlanEta  int64 // cost-model η the plan was optimized under (0: default)
	Epoch    int64
	Ingested int64
	Dropped  int64
	Late     int64
	HasPipe  bool
	HasCarry bool // Reorder holds a carried horizon but no engine state
	Reorder  reorder.State
	Engine   []byte // parallel.Runner snapshot (embeds the shard count)
}

type checkpointQuery struct {
	ID  string
	SQL string
}

// Checkpoint serializes the server's full streaming state. It is
// consistent at ingest-batch boundaries: the pipeline is barriered and
// no batch is in flight while the snapshot is taken.
func (s *Server) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint's body for callers already holding
// s.mu — the durable snapshot capture embeds a checkpoint while the
// ingest lock pins the state to a record boundary.
func (s *Server) checkpointLocked() ([]byte, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if s.engineErr != nil {
		return nil, fmt.Errorf("%w: %v; nothing consistent to checkpoint", ErrEngine, s.engineErr)
	}
	cp := checkpoint{
		Version:  checkpointVersion,
		NextID:   s.nextID,
		Fn:       s.fn,
		HasFn:    s.hasFn,
		Factors:  s.cfg.Factors,
		Param:    s.param,
		PlanEta:  s.planEta,
		Epoch:    s.epoch,
		Ingested: s.ingested,
		Dropped:  s.dropped,
		Late:     s.late,
	}
	for _, qi := range s.sortedIDs() {
		cp.Queries = append(cp.Queries, checkpointQuery{ID: qi, SQL: s.queries[qi].sql})
	}
	switch {
	case s.pipe != nil:
		cp.HasPipe = true
		cp.Reorder = s.pipe.buf.Snapshot()
		eng, err := s.pipe.runner.Snapshot()
		if err != nil {
			return nil, err
		}
		cp.Engine = eng
	case s.carry != nil:
		// No pipeline, but the sealed horizon (and pending events) of the
		// last one must survive the round-trip.
		cp.HasCarry = true
		cp.Reorder = *s.carry
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("server: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreCheckpoint replaces the server's state with a previously taken
// checkpoint: queries are re-registered from their SQL, the joint plan
// is rebuilt deterministically, and the shard engines resume their open
// window instances. The restoring server must run with the same Factors
// option as the one that checkpointed (the engine fingerprint check
// rejects a mismatched plan).
func (s *Server) RestoreCheckpoint(data []byte) error {
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		return fmt.Errorf("server: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("server: checkpoint version %d, this build reads only %d: %w",
			cp.Version, checkpointVersion, engine.ErrSnapshotVersion)
	}
	if cp.Factors != s.cfg.Factors {
		return fmt.Errorf("%w: checkpoint taken with factors=%t, server runs factors=%t",
			ErrConflict, cp.Factors, s.cfg.Factors)
	}
	if (cp.HasPipe || cp.HasCarry) &&
		(cp.Reorder.Bound != s.cfg.ReorderBound || cp.Reorder.Policy != s.cfg.Policy) {
		// Silently adopting the checkpoint's disorder settings would
		// override the operator's flags for the server's remaining
		// lifetime with nothing surfacing the divergence.
		return fmt.Errorf("%w: checkpoint reorder bound/policy %d/%v, server runs %d/%v",
			ErrConflict, cp.Reorder.Bound, cp.Reorder.Policy, s.cfg.ReorderBound, s.cfg.Policy)
	}
	if len(cp.Queries) > 0 && !cp.HasFn {
		return fmt.Errorf("server: checkpoint has %d queries but no aggregate function", len(cp.Queries))
	}
	// Checkpoints arrive from clients: every query re-runs Register's
	// admission checks, and the whole set must agree on the aggregate.
	queries := make(map[string]*registration, len(cp.Queries))
	for _, cq := range cp.Queries {
		q, err := admitQuery(cq.SQL, s.cfg.ExactMedian)
		if err != nil {
			return fmt.Errorf("server: checkpointed query %q: %w", cq.ID, err)
		}
		if cq.ID == "" {
			return fmt.Errorf("server: checkpointed query with empty ID")
		}
		if _, dup := queries[cq.ID]; dup {
			return fmt.Errorf("server: checkpoint lists query %q twice", cq.ID)
		}
		if q.Fn != cp.Fn {
			return fmt.Errorf("server: checkpointed query %q aggregates with %v, checkpoint set uses %v",
				cq.ID, q.Fn, cp.Fn)
		}
		if q.Param != cp.Param {
			// The parameter is re-derived from the SQL; a blob whose header
			// disagrees was tampered with or written by a server holding
			// different rewrite rules — either way the sketch state inside
			// would be finalized under the wrong φ/k.
			return fmt.Errorf("server: checkpointed query %q uses parameter %v, checkpoint set uses %v",
				cq.ID, q.Param, cp.Param)
		}
		queries[cq.ID] = &registration{id: cq.ID, sql: cq.SQL, q: q, ring: newRing(s.cfg.ResultBuffer)}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.applyCheckpointLocked(&cp, queries)
	if errors.Is(err, ErrClosed) {
		return err
	}
	// The restored state replaced everything the log's earlier records
	// describe, successfully or (fresh-state fallback) partially; either
	// way a durable server must fence the log here — see
	// restoreBarrierLocked.
	if s.wal != nil && !s.walReplaying {
		if berr := s.restoreBarrierLocked(); berr != nil && err == nil {
			err = berr
		}
	}
	return err
}

// applyCheckpointLocked swaps the validated checkpoint state in.
// Callers hold s.mu.
func (s *Server) applyCheckpointLocked(cpp *checkpoint, queries map[string]*registration) error {
	cp := *cpp
	if s.closed {
		return ErrClosed
	}
	if s.pipe != nil {
		s.teardown()
	}
	for _, reg := range s.queries {
		reg.ring.closeRing()
	}
	s.queries = queries
	s.nextID = cp.NextID
	s.fn, s.param, s.hasFn = cp.Fn, cp.Param, cp.HasFn
	s.planEta = cp.PlanEta
	s.epoch = cp.Epoch
	s.ingested = cp.Ingested
	s.dropped = cp.Dropped
	s.late = cp.Late
	s.engineErr = nil
	s.carry = nil
	// The adaptive observation window belongs to the replaced stream
	// position: restoring to an earlier point with a stale obs.last
	// would otherwise freeze the window (no event ever advances it) and
	// silently disable adaptive re-planning.
	if s.obs.keys != nil {
		s.resetObs()
	}
	s.lastEta, s.lastKeys, s.lastOverpay = 0, 0, 0
	if !cp.HasPipe {
		if cp.HasCarry {
			carried := cp.Reorder
			s.carry = &carried
		}
		if len(s.queries) > 0 {
			// Snapshot of a failed-and-not-yet-rebuilt set cannot occur
			// (Checkpoint refuses); still, never leave live queries
			// without a pipeline.
			return s.replan()
		}
		return nil
	}
	state, err := parallel.DecodeSnapshot(cp.Engine)
	var np *pipeline
	if err == nil {
		np, _, err = s.buildPipeline(cp.Reorder.Released, &cp.Reorder, state)
	}
	if err != nil {
		// The registry is already replaced; fall back to a fresh plan so
		// the server stays serviceable, surfacing the restore failure.
		// The checkpoint's reorder horizon still gates the fallback epoch
		// — without it, windows straddling the restore point would be
		// delivered with partial values. Pending events are carried only
		// if they respect the horizon (the engine blob being corrupt says
		// nothing about them; hostile ones would wedge every re-plan).
		carried := cp.Reorder
		for _, e := range carried.Pending {
			if e.Time < carried.Released {
				carried.Pending = nil
				break
			}
		}
		s.carry = &carried
		if rerr := s.replan(); rerr != nil {
			return fmt.Errorf("server: restoring engine state: %v; re-plan also failed: %w", err, rerr)
		}
		return fmt.Errorf("server: restoring engine state (resumed with fresh state): %w", err)
	}
	s.pipe = np
	return nil
}

func (s *Server) sortedIDs() []string {
	ids := make([]string, 0, len(s.queries))
	for id := range s.queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
