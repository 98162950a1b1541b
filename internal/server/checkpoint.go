// Server-level checkpointing: the registered query set, the reorder
// buffer's pending events and sealed horizon, and every shard engine's
// open window state — including per-window emit floors and in-flight
// migrated (frozen) state — in one record. Restoring onto a fresh server
// resumes the stream exactly where the snapshot left it — the
// serving-layer counterpart of engine.Snapshot/Restore.
//
// A durable snapshot file (durable.go) is the same record with the
// result rings filled in; for a client-driven restore rings are
// transient, and restored queries start a fresh sequence space. The
// optimizer options (including the adaptive cost-model η) and shard
// count are part of the snapshot's identity: the plan is rebuilt from
// the query SQL and must be the plan the shard snapshots name
// (engine.Snapshots), and key placement is a function of the shard
// count.

package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"slices"

	"factorwindows/internal/agg"
	"factorwindows/internal/engine"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/reorder"
)

// checkpointVersion is the one codec generation this build reads and
// writes: 4 since the record holds the shard snapshots and the rings
// itself. Any other version — blobs without the field decode as 0 — is
// rejected with engine.ErrSnapshotVersion before the server's state is
// touched.
const checkpointVersion = 4

// checkpoint is the gob-serialized server state.
type checkpoint struct {
	Version int
	Queries []checkpointQuery // sorted by ID
	NextID  int64
	Fn      agg.Fn
	HasFn   bool
	Factors bool
	// Param is the live set's finalize parameter (φ for PERCENTILE, k
	// for TOPK).
	Param    float64
	PlanEta  int64 // cost-model η the plan was optimized under (0: default)
	Epoch    int64
	Ingested int64
	Dropped  int64
	Late     int64
	HasCarry bool // Reorder holds a carried horizon but no engine state
	Reorder  reorder.State
	Shards   [][]byte    // one engine snapshot per shard; none without a pipeline
	Events   int64       // the pipeline's ingest counter
	Rings    []ringState // durable snapshots only, sorted by ID
}

type checkpointQuery struct {
	ID  string
	SQL string
}

// Checkpoint serializes the server's full streaming state. It is
// consistent at ingest-batch boundaries: the pipeline is barriered and
// no batch is in flight while the snapshot is taken.
func (s *Server) Checkpoint() (data []byte, err error) {
	err = s.mutate(0, func() (err error) {
		data, err = s.checkpointLocked(false)
		return err
	})
	return data, err
}

// checkpointLocked is Checkpoint's body for callers already holding
// s.mu; the durable snapshot capture asks withRings. A failed pipeline
// has nothing consistent to checkpoint, so it refuses every capture
// through the gate.
func (s *Server) checkpointLocked(withRings bool) ([]byte, error) {
	if err := s.refuseLocked(refuseEngine); err != nil {
		return nil, err
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
	for _, qi := range slices.Sorted(maps.Keys(s.queries)) {
		cp.Queries = append(cp.Queries, checkpointQuery{ID: qi, SQL: s.queries[qi].sql})
	}
	switch {
	case s.pipe != nil:
		cp.Reorder = s.pipe.buf.Snapshot()
		shards, err := s.pipe.runner.Snapshot()
		if err != nil {
			return nil, err
		}
		cp.Shards, cp.Events = shards, s.pipe.runner.Events()
	case s.carry != nil:
		// No pipeline, but the sealed horizon (and pending events) of the
		// last one must survive the round-trip.
		cp.HasCarry = true
		cp.Reorder = *s.carry
	}
	for i := 0; withRings && i < len(cp.Queries); i++ {
		// After the engine snapshot, whose barrier drains the last results.
		id := cp.Queries[i].ID
		cp.Rings = append(cp.Rings, s.queries[id].ring.exportState(id))
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
// option as the one that checkpointed (engine.Snapshots rejects shard
// states of another plan). Result rings start empty.
func (s *Server) RestoreCheckpoint(data []byte) error { return s.restoreCheckpoint(data, false) }

// restoreCheckpoint is RestoreCheckpoint's body; withRings also loads
// the result rings a durable snapshot carries, for WAL recovery.
func (s *Server) restoreCheckpoint(data []byte, withRings bool) error {
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
	if (len(cp.Shards) > 0 || cp.HasCarry) &&
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
	for i := 0; withRings && i < len(cp.Rings); i++ {
		// The rings are not serving yet, so a malformed one fails before
		// any state is touched.
		if err := cp.Rings[i].validate(); err != nil {
			return err
		}
		if reg, ok := queries[cp.Rings[i].ID]; ok {
			reg.ring.importState(cp.Rings[i])
		}
	}

	// The shard states are checked against the plan the checkpoint's
	// registry optimizes to. States of another snapshot generation make
	// the checkpoint another generation's, refused here untouched; states
	// that are no snapshot, or belong to another plan, replace the
	// registry and resume it on fresh state, as corrupt state does.
	var mp *multiquery.Plan
	var state engine.Carried
	var stateErr error
	if len(cp.Shards) > 0 {
		var err error
		if mp, err = s.jointPlan(queries, cp.Fn, cp.Param, cp.PlanEta); err != nil {
			return fmt.Errorf("server: checkpointed query set: %w", err)
		}
		state, stateErr = engine.Snapshots(mp.Combined, cp.Shards, cp.Events)
		if errors.Is(stateErr, engine.ErrSnapshotVersion) {
			return fmt.Errorf("server: checkpoint shard state: %w", stateErr)
		}
	}

	return s.mutate(0, func() error {
		err := s.applyCheckpointLocked(&cp, queries, mp, state, stateErr)
		// The restored state replaced everything the log's earlier records
		// describe, successfully or (fresh-state fallback) partially;
		// either way a durable server must fence the log here — see
		// restoreBarrierLocked.
		if s.wal != nil && !s.walReplaying {
			if berr := s.restoreBarrierLocked(); berr != nil && err == nil {
				err = berr
			}
		}
		return err
	})
}

// applyCheckpointLocked swaps the validated checkpoint state in: mp is
// the plan its registry optimizes to and state its shards' engines, or
// stateErr why they cannot resume it. Callers hold s.mu.
func (s *Server) applyCheckpointLocked(cpp *checkpoint, queries map[string]*registration, mp *multiquery.Plan, state engine.Carried, stateErr error) error {
	cp := *cpp
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
	if len(cp.Shards) == 0 {
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
	err := stateErr
	var np *pipeline
	if err == nil {
		np, _, err = s.buildPipeline(mp, cp.Reorder.Released, &cp.Reorder, state)
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
