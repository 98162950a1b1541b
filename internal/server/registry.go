// The query registry and the plan it runs: registering, unregistering
// and re-planning the live set, and the execution pipeline a plan
// builds.

package server

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync/atomic"

	"factorwindows/internal/agg"
	"factorwindows/internal/asaql"
	"factorwindows/internal/core"
	"factorwindows/internal/cost"
	"factorwindows/internal/engine"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/reorder"
	"factorwindows/internal/router"
	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
	"factorwindows/internal/window"
)

// registration is one live query.
type registration struct {
	id   string
	sql  string
	q    *asaql.Query
	ring *ring
}

// WindowInfo describes one window of a registered query.
type WindowInfo struct {
	Name  string `json:"name"`
	Range int64  `json:"range"`
	Slide int64  `json:"slide"`
}

// QueryInfo is the externally visible state of one registered query.
// Evicted counts delivered rows overwritten in the result ring by newer
// ones, read or not: once the ring is full it grows by one per delivered
// row even when every reader keeps up, so it measures ring turnover, not
// loss — a reader's loss is the missed count its read hands it. Events
// discarded on ingest because no query was live are the server Stats'
// Dropped counter, a different thing with a different fix. BufferedRows
// and BufferedRuns are what the ring holds right now: rows readable by
// cursor, and the runs (fired window instances) they are stored as.
type QueryInfo struct {
	ID           string       `json:"id"`
	SQL          string       `json:"query"`
	Fn           string       `json:"fn"`
	Param        float64      `json:"param,omitempty"`
	Windows      []WindowInfo `json:"windows"`
	Delivered    int64        `json:"delivered"`
	Evicted      int64        `json:"evicted"`
	BufferedRows int          `json:"buffered_rows"`
	BufferedRuns int          `json:"buffered_runs"`
}

func (r *registration) info(fn agg.Fn, param float64) QueryInfo {
	qi := QueryInfo{ID: r.id, SQL: r.sql, Fn: fn.String()}
	if agg.SketchBacked(fn) {
		qi.Param = param
	}
	for _, nw := range r.q.Windows {
		qi.Windows = append(qi.Windows, WindowInfo{Name: nw.Name, Range: nw.W.Range, Slide: nw.W.Slide})
	}
	qi.Delivered, qi.Evicted = r.ring.counters()
	qi.BufferedRows, qi.BufferedRuns, _ = r.ring.usage()
	return qi
}

// Register parses and admits one query, re-planning the live set. An
// empty id is assigned automatically. All live queries must share the
// aggregate function (the multiquery joint-plan constraint); WHERE
// clauses and multi-aggregate SELECT lists are rejected because the
// combined plan runs every query over the same event stream.
func (s *Server) Register(id, sql string) (QueryInfo, error) {
	q, err := admitQuery(sql, s.cfg.ExactMedian)
	if err != nil {
		return QueryInfo{}, err
	}
	var qi QueryInfo
	_, err = s.commit(refuseDegraded, func() (*wal.Commit, error) {
		if s.hasFn && q.Fn != s.fn {
			return nil, fmt.Errorf("%w: live queries aggregate with %v, cannot mix in %v", ErrConflict, s.fn, q.Fn)
		}
		if s.hasFn && q.Param != s.param {
			// The joint plan finalizes every query from the same shared
			// state with one parameter; mixing φ/k values needs per-query
			// finalize fan-out the combined plan does not have.
			return nil, fmt.Errorf("%w: live %v queries use parameter %v, cannot mix in %v",
				ErrConflict, s.fn, s.param, q.Param)
		}
		if id == "" {
			for {
				s.nextID++
				id = fmt.Sprintf("q%d", s.nextID)
				if _, taken := s.queries[id]; !taken {
					break
				}
			}
		} else if _, taken := s.queries[id]; taken {
			return nil, fmt.Errorf("%w: query %q already registered", ErrConflict, id)
		}
		reg := &registration{id: id, sql: sql, q: q, ring: newRing(s.cfg.ResultBuffer)}
		s.queries[id] = reg
		prevFn, prevParam, prevHas := s.fn, s.param, s.hasFn
		s.fn, s.param, s.hasFn = q.Fn, q.Param, true
		hadPlan := s.pipe != nil
		if err := s.replan(); err != nil {
			delete(s.queries, id)
			s.fn, s.param, s.hasFn = prevFn, prevParam, prevHas
			return nil, err
		}
		if hadPlan {
			// The counters report plan *swaps*; the first registration
			// builds the initial plan with nothing to swap out.
			s.replans.Register++
		}
		qi = reg.info(s.fn, s.param)
		// Logged with the assigned id, so replay re-registers it verbatim.
		return s.stageControlLocked(walControl{Op: "register", ID: id, SQL: sql})
	}, nil)
	if err != nil {
		return QueryInfo{}, err
	}
	return qi, nil
}

// admitQuery parses and validates one query under the server's
// admission rules. RestoreCheckpoint runs the same gauntlet, so a
// crafted checkpoint cannot smuggle in a query Register would reject
// (and then silently serve wrong results for).
func admitQuery(sql string, exactMedian bool) (*asaql.Query, error) {
	q, err := asaql.Parse(sql)
	if err != nil {
		return nil, err
	}
	if len(q.Aggregates) > 1 {
		return nil, fmt.Errorf("server: query has %d aggregate calls; register one query per aggregate", len(q.Aggregates))
	}
	if len(q.Where) > 0 {
		return nil, fmt.Errorf("server: WHERE clauses are per-query filters and cannot share the joint plan; filter the stream upstream")
	}
	if q.Fn == agg.Median && !exactMedian {
		// Route MEDIAN through the mergeable quantile sketch at φ=0.5. The
		// rewrite happens at admission so the whole pipeline (plan, engine,
		// checkpoints) sees only the sketch-backed function; the stored SQL
		// is untouched, so checkpoint restore re-derives the same rewrite.
		q.Fn, q.Param = agg.Percentile, 0.5
		for i := range q.Aggregates {
			q.Aggregates[i].Fn, q.Aggregates[i].Param = agg.Percentile, 0.5
		}
	}
	if !agg.Mergeable(q.Fn) {
		if q.Fn == agg.Median {
			return nil, fmt.Errorf("server: exact MEDIAN is holistic and not supported by the serving engine (unset ExactMedian to approximate it as PERCENTILE(v, 0.5))")
		}
		return nil, fmt.Errorf("server: aggregate %v is holistic and not supported by the serving engine", q.Fn)
	}
	return q, nil
}

// Unregister removes a query and re-plans the remaining set. The query's
// result ring is closed; undelivered rows stay readable until then-open
// streams drain.
func (s *Server) Unregister(id string) error {
	_, err := s.commit(refuseDegraded, func() (*wal.Commit, error) {
		reg, ok := s.queries[id]
		if !ok {
			return nil, fmt.Errorf("%w: query %q", ErrNotFound, id)
		}
		delete(s.queries, id)
		if len(s.queries) == 0 {
			s.hasFn = false
			s.param = 0
		}
		if err := s.replan(); err != nil {
			// Re-planning a strict subset of a set that planned before
			// cannot fail; if it somehow does, readmit the query to stay
			// consistent.
			s.queries[id] = reg
			s.hasFn = true
			return nil, err
		}
		s.replans.Unregister++
		reg.ring.closeRing()
		return s.stageControlLocked(walControl{Op: "unregister", ID: id})
	}, nil)
	return err
}

// Replan re-optimizes the live query set in place, migrating all open
// window state exactly (no results are skipped or changed — only the
// sharing structure). eta > 0 additionally re-prices the cost model at
// that event rate before optimizing; eta = 0 keeps the current model.
// It exists for operators and demos; the Adaptive config does the same
// thing automatically from observed ingest statistics.
func (s *Server) Replan(eta int64) error {
	_, err := s.commit(refuseDegraded, func() (*wal.Commit, error) {
		if len(s.queries) == 0 {
			return nil, fmt.Errorf("%w: no live queries to re-plan", ErrNotFound)
		}
		prev := s.planEta
		if eta > 0 {
			s.planEta = eta
		}
		if err := s.replan(); err != nil {
			s.planEta = prev
			return nil, err
		}
		s.replans.Manual++
		// Manual re-plans are external inputs and must be logged; adaptive
		// ones re-derive deterministically from the replayed batches.
		return s.stageControlLocked(walControl{Op: "replan", Eta: eta})
	}, nil)
	return err
}

// replan rebuilds the execution pipeline for the current query set,
// migrating every open window instance whose window survives into the
// new plan (zero-gap handover; see the package comment). The new
// pipeline is constructed completely before the old one is torn down,
// so a failure leaves the server running on the previous plan. Pending
// out-of-order events and the sealed release horizon carry over through
// the reorder buffer's state snapshot. Callers hold s.mu.
func (s *Server) replan() error {
	var carried *reorder.State
	horizon := reorder.NoRelease
	if s.pipe != nil {
		st := s.pipe.buf.Snapshot()
		carried = &st
	} else if s.carry != nil {
		carried = s.carry
	}
	if carried != nil {
		horizon = carried.Released
	}
	var np *pipeline
	migrated := 0
	degraded := false
	if len(s.queries) > 0 {
		mp, err := s.jointPlan(s.queries, s.fn, s.param, s.planEta)
		if err != nil {
			return err
		}
		var state engine.Carried
		if s.pipe != nil {
			// Carry the old plan's open-instance state over. A failed
			// shard has nothing consistent to carry; the swap then falls
			// back to a fresh epoch at the horizon — the pre-migration
			// semantics, already the contract for failures — and is
			// counted as degraded so the waived zero-gap guarantee is
			// visible in /stats rather than indistinguishable from a
			// clean migration.
			if st, err := s.pipe.runner.Carry(); err == nil {
				state = st
			} else {
				degraded = true
			}
		}
		if np, migrated, err = s.buildPipeline(mp, horizon, carried, state); err != nil {
			return err
		}
	}
	if s.pipe != nil {
		s.teardown()
	}
	s.pipe = np
	if np != nil {
		s.carry = nil // the state lives in the pipeline again
	} else {
		s.carry = carried
	}
	s.migrated += int64(migrated)
	if degraded {
		s.replans.Degraded++
	}
	s.engineErr = nil
	s.epoch++
	return nil
}

// optimizeOptions is the optimizer configuration every (re)plan and
// checkpoint-restore must share: the plan is part of the engine state's
// identity, so it has to rebuild deterministically from cfg + η.
func (s *Server) optimizeOptions(eta int64) core.Options {
	return core.Options{Factors: s.cfg.Factors, Model: cost.Model{Eta: max(eta, 1)}}
}

// jointPlan optimizes a query registry — the server's, or a checkpoint's
// before it replaces the server's — aggregating with fn under the
// finalize parameter param and the cost-model η eta.
func (s *Server) jointPlan(queries map[string]*registration, fn agg.Fn, param float64, eta int64) (*multiquery.Plan, error) {
	qs := make([]multiquery.Query, 0, len(queries))
	for _, id := range slices.Sorted(maps.Keys(queries)) {
		reg := queries[id]
		ws := make([]window.Window, 0, len(reg.q.Windows))
		for _, nw := range reg.q.Windows {
			ws = append(ws, nw.W)
		}
		qs = append(qs, multiquery.Query{ID: id, Windows: ws})
	}
	mp, err := multiquery.Optimize(qs, fn, s.optimizeOptions(eta))
	if err != nil {
		return nil, err
	}
	// The finalize parameter (φ / k) rides the combined plan down into
	// every shard engine; it is not part of the plan's shape, so state
	// carries unchanged across plans differing only in Param.
	mp.Combined.Param = param
	return mp, nil
}

// buildPipeline assembles mp's stack for the current query set. carried
// restores the reorder buffer (pending events, sealed horizon); state
// resumes the shard engines — a re-plan's carried engines, a
// checkpoint's snapshots, or nothing — and freshFloor is the re-plan
// horizon: the exposed-result floor for windows the state does not
// cover, and the cut a changed plan's state is canonicalised at. It
// returns the migrated-instance count. Callers hold s.mu and end in the
// publish step: a carried backlog over the reorder cap is trimmed into
// the new runner here.
func (s *Server) buildPipeline(mp *multiquery.Plan, freshFloor int64, carried *reorder.State, state engine.Carried) (*pipeline, int, error) {
	qs := mp.Queries
	muted := new(atomic.Bool)
	rings := make(map[string]*ring, len(qs))
	for _, q := range qs {
		rings[q.ID] = s.queries[q.ID].ring
	}
	sink := newRouteSink(mp, muted, rings)
	var runner *parallel.Runner
	var rr *router.Runner
	migrated := 0
	var err error
	if len(s.workers) > 0 {
		// Distributed tier: the same plan inputs go to every worker so
		// each shard rebuilds the identical plan, and the carried state
		// rides each shard's hello.
		spec := router.Spec{
			Queries:         qs,
			Fn:              s.fn,
			Param:           s.param,
			Eta:             s.planEta,
			Factors:         s.cfg.Factors,
			Shards:          s.cfg.Shards,
			Workers:         append([]string(nil), s.workers...),
			FreshFloor:      freshFloor,
			State:           state,
			Dial:            s.cfg.WorkerDial,
			CheckpointEvery: s.cfg.WorkerCheckpointEvery,
		}
		if spec.Shards <= 0 {
			// The parallel tier's default, applied here so a config that
			// leaves Shards unset keys events identically in both tiers.
			spec.Shards = runtime.GOMAXPROCS(0)
		}
		if rr, err = router.New(spec, sink); err == nil {
			runner, migrated = rr.Runner, rr.Migrated()
		}
	} else {
		runner, migrated, err = parallel.Resume(mp.Combined, sink, s.cfg.Shards, state, freshFloor)
	}
	if err != nil {
		return nil, 0, err
	}
	// The server barriers after every ingestChunk batch, so ordered
	// draining makes the cross-shard result order — and therefore ring
	// sequence numbers and the bytes of both stream encodings — a pure
	// function of the ingested events. The cross-codec equivalence test
	// and binary stream resume both lean on this. (Remote shards drain
	// ordered regardless.)
	runner.SetOrderedDrain(true)
	var buf *reorder.Buffer
	if carried != nil {
		buf, err = reorder.NewFromState(runner, *carried, s.onLate)
	} else {
		buf, err = reorder.New(runner, s.cfg.ReorderBound, s.cfg.Policy, s.onLate)
	}
	if err != nil {
		muted.Store(true)
		runner.Close()
		return nil, 0, err
	}
	// The memory cap is deployment configuration, reapplied to every
	// epoch's buffer (carried state brings the drop accounting along,
	// not the cap itself).
	if s.cfg.ReorderCap > 0 {
		buf.SetCap(s.cfg.ReorderCap, s.cfg.ReorderCapPolicy)
	}
	return &pipeline{plan: mp, runner: runner, router: rr, buf: buf, muted: muted, rings: rings}, migrated, nil
}

// teardown discards the current pipeline: its flush of open window
// instances is muted (they either migrated to the next epoch or belong
// to queries that left). Callers hold s.mu.
func (s *Server) teardown() {
	s.pipe.muted.Store(true)
	s.pipe.runner.Close()
	s.pipe = nil
}

// routeSink is the epoch's result path: the multiquery run sink tags
// each fired instance's run with its subscribers (one lookup per run),
// the muted flag silences the stream during teardown, and each subscriber's ring
// copies the run's columns in one appendRun. Epoch-boundary suppression
// needs no filtering here any more — the engine's per-node emit floors
// keep partial instances from ever being emitted. As the runner's
// parallel.DeliverySink it wakes the readers of every ring a delivery
// appended to once that delivery ends: one wake per delivered shard
// buffer, not one per run.
type routeSink struct {
	stream.RunSink
	touched []*ring // rings owed a wake when the current delivery ends
}

func newRouteSink(mp *multiquery.Plan, muted *atomic.Bool, rings map[string]*ring) *routeSink {
	s := &routeSink{}
	s.RunSink = mp.RunSink(func(ids []string, run stream.Run) {
		if muted.Load() {
			return
		}
		for _, id := range ids {
			if rg := rings[id]; rg != nil && rg.appendRun(run) {
				s.touched = append(s.touched, rg)
			}
		}
	})
	return s
}

// Delivered implements parallel.DeliverySink.
func (s *routeSink) Delivered() {
	for i, rg := range s.touched {
		rg.delivered()
		s.touched[i] = nil
	}
	s.touched = s.touched[:0]
}

// Queries lists the live queries, sorted by ID.
func (s *Server) Queries() []QueryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueryInfo, 0, len(s.queries))
	for _, id := range slices.Sorted(maps.Keys(s.queries)) {
		out = append(out, s.queries[id].info(s.fn, s.param))
	}
	return out
}

// Query returns one query's state.
func (s *Server) Query(id string) (QueryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, ok := s.queries[id]
	if !ok {
		return QueryInfo{}, fmt.Errorf("%w: query %q", ErrNotFound, id)
	}
	return reg.info(s.fn, s.param), nil
}

// Results returns up to limit result rows of query id with sequence
// numbers above after (limit <= 0 means all buffered), plus the number
// of requested rows already evicted from the ring.
func (s *Server) Results(id string, after int64, limit int) ([]ResultRow, int64, error) {
	rg, err := s.ringOf(id)
	if err != nil {
		return nil, 0, err
	}
	rows, missed := rg.readAfter(after, limit)
	return rows, missed, nil
}

// ringOf resolves a query's ring under the lock; reads then proceed
// without it.
func (s *Server) ringOf(id string) (*ring, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, ok := s.queries[id]
	if !ok {
		return nil, fmt.Errorf("%w: query %q", ErrNotFound, id)
	}
	return reg.ring, nil
}
