// Server-wide read-outs: /stats and the health probes.

package server

import (
	"factorwindows/internal/agg"
	"factorwindows/internal/reorder"
	"factorwindows/internal/router"
)

// Stats is the server-wide state summary. Dropped and Evicted are two
// different counters: Dropped counts events discarded on ingest because
// no query was live (nothing existed to compute); Evicted sums result
// rows overwritten in per-query rings by newer rows, read or not — ring
// turnover, which grows on a full ring even when every reader keeps up.
// A reader's loss is the missed count its read hands it. Earlier
// versions folded both stories into one number.
type Stats struct {
	Queries      int     `json:"queries"`
	Epoch        int64   `json:"epoch"`
	Fn           string  `json:"fn,omitempty"`
	Param        float64 `json:"param,omitempty"`
	Shards       int     `json:"shards"`
	Ingested     int64   `json:"ingested"`
	Dropped      int64   `json:"dropped"`
	Evicted      int64   `json:"evicted"`
	Late         int64   `json:"late"`
	Buffered     int     `json:"buffered"`
	Released     int64   `json:"released"`
	EngineEvents int64   `json:"engine_events"`
	Updates      int64   `json:"engine_updates"`
	CombinedCost string  `json:"combined_cost,omitempty"`
	SeparateCost string  `json:"separate_cost,omitempty"`
	Error        string  `json:"error,omitempty"` // persistent pipeline failure, if any

	// Re-planning and migration bookkeeping. Replans breaks plan swaps
	// down by trigger; Migrated counts window instances handed over
	// exactly across swaps; Eta is the cost-model event rate the running
	// plan was optimized under.
	Replans  ReplanCounts `json:"replans"`
	Migrated int64        `json:"migrated_instances"`
	Eta      int64        `json:"eta,omitempty"`

	// Adaptive observation state (present when Config.Adaptive): the
	// last evaluated per-key event rate, the active key cardinality it
	// was computed over, and how far the deployed plan overpaid the
	// observed optimum (1.0 = optimal) at the last evaluation.
	Adaptive    bool    `json:"adaptive,omitempty"`
	ObservedEta int64   `json:"observed_eta,omitempty"`
	ActiveKeys  int     `json:"active_keys,omitempty"`
	Overpay     float64 `json:"overpay,omitempty"`

	// Durability state (present when Config.Durable). WALLag is the
	// record count the newest snapshot does not cover — the replay debt
	// a crash right now would incur; a lag stuck high means snapshot
	// writes are failing (see Error fields) or SnapshotEvery is 0 and
	// nobody POSTs /checkpoint.
	Durable            bool   `json:"durable,omitempty"`
	WALAppended        int64  `json:"wal_appended,omitempty"`
	WALFsyncs          int64  `json:"wal_fsyncs,omitempty"`
	WALLag             int64  `json:"wal_lag,omitempty"`
	LastSnapshotOffset int64  `json:"last_snapshot_offset,omitempty"`
	WALError           string `json:"wal_error,omitempty"`      // sticky commit failure
	SnapshotError      string `json:"snapshot_error,omitempty"` // last async write failure

	// Overload-protection telemetry. The admission counters are present
	// when byte budgets are configured; the cap counters when the
	// reorder buffer is bounded. Degraded mirrors /readyz: the durable
	// log fail-stopped and mutations shed while reads keep serving.
	// ResultBufferBytes sums, over the live queries' rings, the bytes of
	// the result columns and run-header deques they hold right now.
	Degraded           bool  `json:"degraded,omitempty"`
	Panics             int64 `json:"panics,omitempty"`
	AdmitShed          int64 `json:"admit_shed,omitempty"`
	AdmitWaits         int64 `json:"admit_waits,omitempty"`
	AdmitInflightBytes int64 `json:"admit_inflight_bytes,omitempty"`
	AdmitPeakBytes     int64 `json:"admit_peak_bytes,omitempty"`
	ReorderCapDropped  int64 `json:"reorder_cap_dropped,omitempty"`
	ReorderCapReleased int64 `json:"reorder_cap_released,omitempty"`
	EgressPeakRows     int64 `json:"egress_peak_rows,omitempty"`
	ResultBufferBytes  int64 `json:"result_buffer_bytes"`
	WALRetries         int64 `json:"wal_retries,omitempty"`
	WALStagedPeak      int64 `json:"wal_staged_peak,omitempty"`

	// Distributed topology (present when the server runs on workers):
	// per-worker liveness and shard placement, plus the degradation
	// counters — shards shed after losing their last placement, events
	// dropped for shed shards, transparent failovers, and explicit
	// rebalances (see router.Topology).
	Topology *router.Topology `json:"topology,omitempty"`
}

// StatsNow reports the current server state. It is a pure read: every
// mutation ends in the publish step, so the runner is quiescent whenever
// s.mu is free and the engine counters are consistent with everything
// ingested so far.
func (s *Server) StatsNow() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Queries:     len(s.queries),
		Epoch:       s.epoch,
		Shards:      s.cfg.Shards,
		Ingested:    s.ingested,
		Dropped:     s.dropped,
		Late:        s.late,
		Replans:     s.replans,
		Migrated:    s.migrated,
		Adaptive:    s.cfg.Adaptive,
		ObservedEta: s.lastEta,
		ActiveKeys:  s.lastKeys,
		Overpay:     s.lastOverpay,
	}
	for _, reg := range s.queries {
		_, ev := reg.ring.counters()
		st.Evicted += ev
		_, _, bytes := reg.ring.usage()
		st.ResultBufferBytes += bytes
	}
	if s.planEta > 1 {
		st.Eta = s.planEta
	} else if s.hasFn {
		st.Eta = 1
	}
	if s.hasFn {
		st.Fn = s.fn.String()
		if agg.SketchBacked(s.fn) {
			st.Param = s.param
		}
	}
	if s.engineErr != nil {
		st.Error = s.engineErr.Error()
	}
	if s.wal != nil {
		ls := s.wal.Stats()
		st.Durable = true
		st.WALAppended = ls.Appended
		st.WALFsyncs = ls.Fsyncs
		st.WALLag = ls.NextOffset - s.lastSnapOffset
		st.LastSnapshotOffset = s.lastSnapOffset
		st.WALRetries = ls.Retries
		st.WALStagedPeak = ls.StagedPeak
		if s.walErr != nil {
			st.WALError = s.walErr.Error()
			st.Degraded = true
		}
		if s.snapErr != nil {
			st.SnapshotError = s.snapErr.Error()
		}
	}
	st.Panics = s.panics.Load()
	if s.admit != nil {
		as := s.admit.Stats()
		st.AdmitShed = as.Shed
		st.AdmitWaits = as.Waits
		st.AdmitInflightBytes = as.InFlight
		st.AdmitPeakBytes = as.Peak
	}
	if s.carry != nil {
		st.ReorderCapDropped = s.carry.CapDropped
		st.ReorderCapReleased = s.carry.CapReleased
	}
	if s.pipe != nil {
		st.ReorderCapDropped = s.pipe.buf.CapDropped()
		st.ReorderCapReleased = s.pipe.buf.CapReleased()
		st.Shards = s.pipe.runner.Shards()
		st.Buffered = s.pipe.buf.Buffered()
		if rel := s.pipe.buf.Released(); rel > reorder.NoRelease {
			st.Released = rel
		}
		st.EngineEvents = s.pipe.runner.Events()
		st.Updates = s.pipe.runner.TotalUpdates()
		st.CombinedCost = s.pipe.plan.CombinedCost
		st.SeparateCost = s.pipe.plan.SeparateCost
		st.EgressPeakRows = s.pipe.runner.EgressPeak()
		if s.pipe.router != nil {
			topo := s.pipe.router.Topology()
			st.Topology = &topo
		}
	}
	return st
}

// Health is the operator-facing liveness/readiness summary behind
// /healthz and /readyz. Ready is false while the server cannot accept
// mutations: closed, degraded (durable log fail-stopped), or running
// without an execution pipeline after an engine failure. Reads may
// still serve in the non-ready states short of closed.
type Health struct {
	Status string `json:"status"` // ok | degraded | closed
	Reason string `json:"reason,omitempty"`
	Ready  bool   `json:"ready"`
}

// Health reports the server's current health: ready exactly when the
// gate would admit an ingest.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch err := s.refuseLocked(refuseDegraded | refuseEngine); {
	case err == nil:
		return Health{Status: "ok", Ready: true}
	case s.closed:
		return Health{Status: "closed", Reason: err.Error()}
	default:
		return Health{Status: "degraded", Reason: err.Error()}
	}
}
