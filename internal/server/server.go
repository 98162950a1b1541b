// Package server is a long-running, multi-client serving layer over the
// factor-window engine: the paper's motivating scenario (Section I) as a
// service. Clients register ASAQL queries, stream events in, and read or
// stream each query's window results back out.
//
// Internally the live query set is jointly optimized by multiquery into
// one combined factor-window plan, executed on key-sharded engines by
// parallel, and fed through a reorder buffer that tolerates bounded
// out-of-order input. Registering or unregistering a query re-plans the
// whole set, and with Config.Adaptive the server also re-plans itself
// when the observed workload (event rate over active key cardinality)
// drifts far enough that the cost model prefers a different sharing
// structure.
//
// # Re-planning semantics
//
// A plan change starts a new epoch at the current release horizon R
// (every event strictly below R has already been executed; every future
// event arrives at or above it). The swap is zero-gap: before the old
// pipeline is torn down, every shard engine exports the canonical state
// of its open window instances (parallel.ExportCanonical), and the new
// pipeline resumes them wherever the window survives into the new plan
// — whatever the sharing structure on either side (see
// engine/migrate.go for the exactness argument). The visible contract:
// every delivered result is exact and complete, each window instance is
// delivered at most once, and a window that exists across a re-plan
// loses nothing. Only windows genuinely new to the plan (a query
// registered mid-stream whose windows nobody computed before) start at
// R: their earlier instances would be partial, so the engine suppresses
// results of instances starting before R — subscribers to a new window
// see instances that start after they subscribe. Unregistering the last
// query still discards open state (there is no pipeline to carry it),
// sealing the horizon so a later epoch never reports partial straddlers.
package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"factorwindows/internal/adaptive"
	"factorwindows/internal/admit"
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

// Sentinel errors, mapped to HTTP statuses by the handlers.
var (
	ErrNotFound = errors.New("not found")
	ErrConflict = errors.New("conflict")
	ErrClosed   = errors.New("server closed")
	// ErrEngine marks a failed execution pipeline (e.g. a corrupt
	// restored checkpoint violating the engine's input contract). The
	// pipeline is torn down; recovery is a registry change or a restore
	// from a valid checkpoint.
	ErrEngine = errors.New("engine failure")
	// ErrDegraded marks read-only degraded mode: the durable log has
	// failed its retry budget, so every mutation sheds (503 with a
	// Retry-After hint) while queries and result streams keep serving
	// what was already accepted. Recovery is a process restart, which
	// replays the verified log. /readyz reports it to load balancers.
	ErrDegraded = errors.New("degraded: durable log failed")
)

// Config configures a Server.
type Config struct {
	// Shards is the key-shard count for parallel execution (<= 0 selects
	// GOMAXPROCS). It is fixed for the server's lifetime so that key
	// placement is stable across re-plans and checkpoints.
	Shards int
	// Factors enables the factor-window expansion (Algorithm 3) in the
	// joint optimization.
	Factors bool
	// ReorderBound is the out-of-order tolerance in ticks; events later
	// than that are handled per Policy.
	ReorderBound int64
	// Policy says what to do with events beyond the bound (drop/adjust).
	Policy reorder.Policy
	// ResultBuffer is the per-query result ring capacity (default 4096).
	ResultBuffer int

	// Adaptive enables cost-model-driven re-planning: the ingest path
	// tracks the event rate and active key cardinality, re-prices the
	// running plan under the observed per-key rate η, and re-plans in
	// place (with exact state migration) when the deployed structure
	// overpays the optimum by AdaptiveOverpay.
	Adaptive bool
	// AdaptiveEpoch is the re-evaluation interval in stream ticks
	// (default 1024).
	AdaptiveEpoch int64
	// AdaptiveOverpay is the re-plan threshold on the deployed/optimal
	// cost ratio; values at or below 1 select the default 1.2 (re-plan
	// when the running plan is ≥20% over the observed optimum).
	AdaptiveOverpay float64

	// ExactMedian is the holistic exactness knob. By default (false)
	// MEDIAN queries are admitted by rewriting them to the sketch-backed
	// PERCENTILE at φ=0.5 — bounded memory, approximate answers. When
	// true the server promises exact medians only, and since the shared
	// serving engine cannot evaluate holistic functions, MEDIAN queries
	// are rejected at admission instead of approximated silently.
	ExactMedian bool

	// Durable turns on the write-ahead log: every accepted ingest batch
	// and registry mutation is appended (and, per Fsync, fsynced) before
	// the client is acked, and server.Open recovers snapshot + log tail
	// after a crash. Requires WALDir; use Open, not New, to construct a
	// durable server.
	Durable bool
	// WALDir is the log directory (segments, manifest, snapshots).
	WALDir string
	// Fsync is the append durability policy (see wal.FsyncPolicy).
	Fsync wal.FsyncPolicy
	// FsyncInterval is the background sync cadence under
	// wal.FsyncInterval (default 50ms).
	FsyncInterval time.Duration
	// WALSegmentBytes overrides the segment rotation threshold (tests).
	WALSegmentBytes int64
	// SnapshotEvery auto-captures a snapshot each time that many log
	// records accumulate past the last one (0: manual POST /checkpoint
	// and shutdown only). Snapshots bound both replay time and log disk
	// use — the covered prefix is truncated once the write lands.
	SnapshotEvery int64
	// WALFS overrides the log's filesystem (fault-injection tests).
	WALFS wal.FS
	// WALRetries is the transient-fault retry budget for WAL segment
	// writes and fsyncs (exponential backoff) before the durable path
	// fail-stops into degraded mode. Zero keeps strict fail-fast.
	WALRetries int
	// WALRetryBackoff is the first WAL retry's backoff, doubling per
	// attempt (default 1ms).
	WALRetryBackoff time.Duration

	// MaxInflightBytes caps the total ingest request bytes admitted at
	// once across all clients (0: no admission control). Requests over
	// budget wait up to AdmitWait, then shed with 429 + Retry-After.
	MaxInflightBytes int64
	// MaxSourceBytes is the same budget per source (client IP).
	MaxSourceBytes int64
	// AdmitWait bounds how long an over-budget ingest may wait for
	// capacity before it sheds (0: shed immediately).
	AdmitWait time.Duration
	// RetryAfter is the backoff hint attached to 429/503 sheds
	// (default 1s).
	RetryAfter time.Duration

	// ReorderCap bounds the reorder buffer's pending-event heap in
	// events (0: unbounded); ReorderCapPolicy picks what happens at the
	// cap (force-release oldest vs reject newest). Drops are accounted
	// in /stats, never silent.
	ReorderCap       int
	ReorderCapPolicy reorder.CapPolicy
	// MaxStreamSubs caps live subscriptions per stream-listener
	// connection (0 selects 1024; negative disables the cap).
	MaxStreamSubs int
	// MaxBodyBytes caps request bodies on the buffering ingest codecs
	// — JSON array and CSV, which read the whole body before decoding
	// (0 selects 64 MiB). The streaming codecs (NDJSON, frames) are
	// bounded by admission instead.
	MaxBodyBytes int64

	// Workers switches execution to the distributed tier: shard engines
	// run in fwworker processes at these addresses instead of in-process
	// goroutines, with the router consistent-hashing keys across them.
	// Shards still fixes the shard count; workers may be added, drained,
	// and reassigned at runtime (POST /topology) without changing key
	// placement. Empty keeps the single-process parallel runner.
	Workers []string
	// WorkerDial overrides how worker connections are opened (tests);
	// nil selects net.Dial("tcp", addr).
	WorkerDial func(addr string) (net.Conn, error)
	// WorkerCheckpointEvery is the router's journal-compaction cadence
	// in barriers (0 selects the router default). Smaller values bound
	// failover replay work; larger ones trade that for fewer state
	// exports on the barrier path.
	WorkerCheckpointEvery int64
}

// registration is one live query.
type registration struct {
	id   string
	sql  string
	q    *asaql.Query
	ring *ring
}

// gate mutes one epoch's result stream while its pipeline is torn down,
// so the teardown flush of instances that migrated to the next epoch
// (or belong to unregistered queries) is discarded. Partial-instance
// suppression lives in the engine now (per-node emit floors), not here.
type gate struct {
	muted atomic.Bool
}

// pipeline is one epoch's execution stack: reorder buffer → key-sharded
// runner → routing sink → per-query rings. The runner is the one shard
// tier whichever shards it drives — goroutines in process, or sessions
// on fwworker processes, in which case router is the same runner's
// topology face (placement, failover, rebalance); nil in process.
type pipeline struct {
	plan   *multiquery.Plan
	runner *parallel.Runner
	router *router.Runner
	buf    *reorder.Buffer
	gate   *gate
	rings  map[string]*ring // immutable snapshot of the epoch's queries
}

// Server hosts a dynamic set of ASAQL queries over one event stream.
// Registry and ingest mutations serialize on mu (the engine consumes an
// in-order stream, so ingestion is inherently sequential); result reads
// only touch the per-query rings and run lock-free with respect to mu.
type Server struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	queries  map[string]*registration
	fn       agg.Fn
	param    float64 // finalize parameter shared by the live set (φ / k)
	hasFn    bool
	pipe     *pipeline
	epoch    int64
	nextID   int64
	ingested int64
	dropped  int64 // events ingested while no query was live
	late     int64 // events beyond the reorder bound, across all epochs

	// planEta is the cost-model rate η the current plan was optimized
	// under (0: the default η=1). Adaptive re-planning moves it; it is
	// part of a checkpoint's identity because it shapes the plan.
	planEta int64
	// migrated counts window instances handed over across re-plans.
	migrated int64
	// replans counts plan swaps by trigger.
	replans ReplanCounts

	// obs is the adaptive observation window over the ingest path.
	obs struct {
		events int64
		keys   map[uint64]struct{}
		start  int64 // first tick of the window (-1: unset)
		last   int64 // newest tick seen
	}
	// lastEta/lastKeys/lastOverpay record the most recent adaptive
	// evaluation, for /stats.
	lastEta     int64
	lastKeys    int
	lastOverpay float64

	// workers is the live distributed worker set (nil: single-process
	// execution). Seeded from Config.Workers and grown by AddWorker, it
	// outlives any one pipeline so re-plans and checkpoint restores
	// rebuild onto the current topology, not the boot-time one.
	workers []string

	// carry preserves the reorder buffer's state (sealed horizon,
	// pending events) while no pipeline exists — unregistering the last
	// query must not unseal the horizon, or the next epoch would deliver
	// partial straddling windows.
	carry *reorder.State
	// engineErr records a pipeline failure; ingestion reports it until a
	// registry change or checkpoint restore rebuilds the pipeline.
	engineErr error

	// Durability state (nil/zero on non-durable servers; durable.go).
	wal            *wal.Log
	walReplaying   bool  // recovery replay in flight: apply, don't re-append
	walErr         error // sticky commit failure: mutations fail-stop
	lastSnapOffset int64
	snapBusy       bool  // one async snapshot write at a time
	snapErr        error // last snapshot write failure, for /stats
	snapWG         sync.WaitGroup
	replayBatch    []stream.Event // replay decode scratch

	// admit is the ingest admission controller (nil: no budgets
	// configured). panics counts HTTP handler panics recovered by the
	// middleware in handlers.go.
	admit  *admit.Controller
	panics atomic.Int64
}

// ReplanCounts breaks plan swaps down by what triggered them. Degraded
// counts swaps that could not export the old pipeline's state (a failed
// shard) and fell back to a fresh epoch at the horizon — those swaps
// skip straddling windows instead of migrating them, so a non-zero
// count means the zero-gap guarantee was waived for visible reasons.
type ReplanCounts struct {
	Register   int64 `json:"register"`
	Unregister int64 `json:"unregister"`
	Adaptive   int64 `json:"adaptive"`
	Manual     int64 `json:"manual"`
	Degraded   int64 `json:"degraded,omitempty"`
}

// New creates an idle server; queries and events arrive via the API.
func New(cfg Config) *Server {
	if cfg.ResultBuffer <= 0 {
		cfg.ResultBuffer = 4096
	}
	if cfg.ReorderBound < 0 {
		cfg.ReorderBound = 0
	}
	if cfg.AdaptiveEpoch <= 0 {
		cfg.AdaptiveEpoch = 1024
	}
	if cfg.AdaptiveOverpay <= 1 {
		cfg.AdaptiveOverpay = 1.2
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxStreamSubs == 0 {
		cfg.MaxStreamSubs = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	s := &Server{cfg: cfg, queries: make(map[string]*registration)}
	s.workers = append([]string(nil), cfg.Workers...)
	if cfg.MaxInflightBytes > 0 || cfg.MaxSourceBytes > 0 {
		s.admit = admit.New(admit.Options{
			GlobalBytes: cfg.MaxInflightBytes,
			SourceBytes: cfg.MaxSourceBytes,
			MaxWait:     cfg.AdmitWait,
			RetryAfter:  cfg.RetryAfter,
		})
	}
	s.obs.start = -1
	return s
}

// Admission exposes the ingest admission controller (nil when no byte
// budgets are configured) for operators and tests.
func (s *Server) Admission() *admit.Controller { return s.admit }

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
	s.mu.Lock()
	qi, commit, err := s.registerLocked(id, sql, q)
	s.mu.Unlock()
	if err != nil {
		return QueryInfo{}, err
	}
	if _, err := s.awaitCommit(commit); err != nil {
		return QueryInfo{}, err
	}
	return qi, nil
}

func (s *Server) registerLocked(id, sql string, q *asaql.Query) (QueryInfo, *wal.Commit, error) {
	if s.closed {
		return QueryInfo{}, nil, ErrClosed
	}
	if err := s.walGateLocked(); err != nil {
		return QueryInfo{}, nil, err
	}
	if s.hasFn && q.Fn != s.fn {
		return QueryInfo{}, nil, fmt.Errorf("%w: live queries aggregate with %v, cannot mix in %v", ErrConflict, s.fn, q.Fn)
	}
	if s.hasFn && q.Param != s.param {
		// The joint plan finalizes every query from the same shared state
		// with one parameter; mixing φ/k values needs per-query finalize
		// fan-out the combined plan does not have.
		return QueryInfo{}, nil, fmt.Errorf("%w: live %v queries use parameter %v, cannot mix in %v",
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
		return QueryInfo{}, nil, fmt.Errorf("%w: query %q already registered", ErrConflict, id)
	}

	reg := &registration{id: id, sql: sql, q: q, ring: newRing(s.cfg.ResultBuffer)}
	s.queries[id] = reg
	prevFn, prevParam, prevHas := s.fn, s.param, s.hasFn
	s.fn, s.param, s.hasFn = q.Fn, q.Param, true
	hadPlan := s.pipe != nil
	if err := s.replan(); err != nil {
		delete(s.queries, id)
		s.fn, s.param, s.hasFn = prevFn, prevParam, prevHas
		return QueryInfo{}, nil, err
	}
	if hadPlan {
		// The counters report plan *swaps*; the first registration builds
		// the initial plan with nothing to swap out.
		s.replans.Register++
	}
	// Logged with the assigned id, so replay re-registers it verbatim.
	commit, err := s.stageControlLocked(walControl{Op: "register", ID: id, SQL: sql})
	if err != nil {
		return QueryInfo{}, nil, err
	}
	return reg.info(s.fn, s.param), commit, nil
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
	s.mu.Lock()
	commit, err := s.unregisterLocked(id)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = s.awaitCommit(commit)
	return err
}

func (s *Server) unregisterLocked(id string) (*wal.Commit, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.walGateLocked(); err != nil {
		return nil, err
	}
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
		// Re-planning a strict subset of a set that planned before cannot
		// fail; if it somehow does, readmit the query to stay consistent.
		s.queries[id] = reg
		s.hasFn = true
		return nil, err
	}
	s.replans.Unregister++
	reg.ring.closeRing()
	return s.stageControlLocked(walControl{Op: "unregister", ID: id})
}

// Replan re-optimizes the live query set in place, migrating all open
// window state exactly (no results are skipped or changed — only the
// sharing structure). eta > 0 additionally re-prices the cost model at
// that event rate before optimizing; eta = 0 keeps the current model.
// It exists for operators and demos; the Adaptive config does the same
// thing automatically from observed ingest statistics.
func (s *Server) Replan(eta int64) error {
	s.mu.Lock()
	commit, err := s.replanManualLocked(eta)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = s.awaitCommit(commit)
	return err
}

func (s *Server) replanManualLocked(eta int64) (*wal.Commit, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.walGateLocked(); err != nil {
		return nil, err
	}
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
	var state engine.Carried
	degraded := false
	if s.pipe != nil && len(s.queries) > 0 {
		// Export the old plan's canonical open-instance state for the
		// handover. A failed shard has nothing consistent to export; the
		// swap then falls back to a fresh epoch at the horizon — the
		// pre-migration semantics, already the contract for failures —
		// and is counted as degraded so the waived zero-gap guarantee is
		// visible in /stats rather than indistinguishable from a clean
		// migration.
		if st, err := s.pipe.runner.ExportCanonical(horizon); err == nil {
			state = st
		} else {
			degraded = true
		}
	}

	var np *pipeline
	migrated := 0
	if len(s.queries) > 0 {
		var err error
		np, migrated, err = s.buildPipeline(horizon, carried, state)
		if err != nil {
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
// identity, so it has to rebuild deterministically from cfg + planEta.
func (s *Server) optimizeOptions() core.Options {
	eta := s.planEta
	if eta < 1 {
		eta = 1
	}
	return core.Options{Factors: s.cfg.Factors, Model: cost.Model{Eta: eta}}
}

// buildPipeline assembles one epoch's stack for the current query set.
// carried restores the reorder buffer (pending events, sealed horizon);
// state resumes the shard engines — a re-plan's export, a checkpoint's
// snapshots, or nothing — and freshFloor is the exposed-result floor for
// windows it does not cover (the release horizon). Which form the state
// is, only the engine tells. It returns the migrated-instance count.
// Callers hold s.mu.
func (s *Server) buildPipeline(freshFloor int64, carried *reorder.State, state engine.Carried) (*pipeline, int, error) {
	ids := s.sortedIDs()
	qs := make([]multiquery.Query, 0, len(ids))
	for _, id := range ids {
		reg := s.queries[id]
		ws := make([]window.Window, 0, len(reg.q.Windows))
		for _, nw := range reg.q.Windows {
			ws = append(ws, nw.W)
		}
		qs = append(qs, multiquery.Query{ID: id, Windows: ws})
	}
	mp, err := multiquery.Optimize(qs, s.fn, s.optimizeOptions())
	if err != nil {
		return nil, 0, err
	}
	// The finalize parameter (φ / k) rides the combined plan down into
	// every shard engine; it is not part of the plan's fingerprint, so
	// state migrates unchanged across plans differing only in Param.
	mp.Combined.Param = s.param
	g := &gate{}
	rings := make(map[string]*ring, len(ids))
	for _, id := range ids {
		rings[id] = s.queries[id].ring
	}
	sink := routeSink(mp, g, rings)
	var runner *parallel.Runner
	var rr *router.Runner
	migrated := 0
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
		g.muted.Store(true)
		runner.Close()
		return nil, 0, err
	}
	// The memory cap is deployment configuration, reapplied to every
	// epoch's buffer (carried state brings the drop accounting along,
	// not the cap itself).
	if s.cfg.ReorderCap > 0 {
		buf.SetCap(s.cfg.ReorderCap, s.cfg.ReorderCapPolicy)
	}
	return &pipeline{plan: mp, runner: runner, router: rr, buf: buf, gate: g, rings: rings}, migrated, nil
}

// teardown discards the current pipeline: its flush of open window
// instances is muted (they either migrated to the next epoch or belong
// to queries that left). Callers hold s.mu.
func (s *Server) teardown() {
	s.pipe.gate.muted.Store(true)
	s.pipe.runner.Close()
	s.pipe = nil
}

// routeSink builds the epoch's result path: the multiquery run sink
// tags each fired instance's run with its subscribers (one lookup per
// run), the gate mutes the stream during teardown, and each
// subscriber's ring copies the run's columns in one appendRun.
// Epoch-boundary suppression needs no filtering here any more — the
// engine's per-node emit floors keep partial instances from ever being
// emitted.
func routeSink(mp *multiquery.Plan, g *gate, rings map[string]*ring) stream.Sink {
	return mp.RunSink(func(ids []string, run stream.Run) {
		if g.muted.Load() {
			return
		}
		for _, id := range ids {
			if rg := rings[id]; rg != nil {
				rg.appendRun(run)
			}
		}
	})
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
// durable server the batch's WAL record has been committed per the
// fsync policy — the commit wait happens after the ingest lock is
// released, so concurrent clients' records coalesce into one fsync.
func (s *Server) Ingest(events []stream.Event) (IngestStatus, error) {
	for i := range events {
		if events[i].Time < 0 {
			return IngestStatus{}, fmt.Errorf("server: event %d has negative time %d", i, events[i].Time)
		}
	}
	s.mu.Lock()
	st, commit, err := s.ingestLocked(events)
	s.mu.Unlock()
	if err != nil {
		return st, err
	}
	// Only fsync=every holds the ack for the group commit. At interval
	// and off the ack is non-durable by contract — durability arrives
	// with the background ticker — so blocking on the buffered segment
	// write would couple ingest latency to disk writeback for nothing;
	// the record is already staged in order, and a write failure
	// fail-stops the next mutation through the WAL gate.
	if commit != nil && s.cfg.Fsync == wal.FsyncEvery {
		durable, err := s.awaitCommit(commit)
		if err != nil {
			return IngestStatus{}, err
		}
		st.Durable = durable
	}
	return st, nil
}

// ingestLocked is Ingest's under-lock body: stage the batch into the
// WAL (log order = application order), apply it, and hand the commit
// ticket back for the caller to await outside the lock.
func (s *Server) ingestLocked(events []stream.Event) (IngestStatus, *wal.Commit, error) {
	if s.closed {
		return IngestStatus{}, nil, ErrClosed
	}
	if s.engineErr != nil {
		return IngestStatus{}, nil, fmt.Errorf("%w: %v (re-register queries or restore a valid checkpoint)",
			ErrEngine, s.engineErr)
	}
	if err := s.walGateLocked(); err != nil {
		return IngestStatus{}, nil, err
	}
	commit, err := s.stageEventsLocked(events)
	if err != nil {
		return IngestStatus{}, nil, err
	}
	s.ingested += int64(len(events))
	st := IngestStatus{Accepted: len(events), Epoch: s.epoch, Late: s.late}
	if s.pipe == nil {
		s.dropped += int64(len(events))
		st.Accepted = 0
		st.Dropped = len(events)
		s.maybeSnapshotLocked()
		return st, commit, nil
	}
	sealed := s.pipe.buf.Released()
	s.pipe.buf.Push(events)
	// Broadcast the release horizon as a watermark so shards whose keys
	// went quiet still fire their completed windows, then sync so every
	// completed result is in its ring before we return.
	if rel := s.pipe.buf.Released(); rel > reorder.NoRelease {
		s.pipe.runner.Advance(rel)
	}
	s.pipe.runner.Barrier()
	if err := s.pipe.runner.Err(); err != nil {
		return IngestStatus{}, commit, s.poisonLocked(err)
	}
	if s.cfg.Adaptive {
		// The pipeline is barriered and healthy: a clean point to fold
		// the batch into the observation window and, at epoch boundaries,
		// re-evaluate the plan under the observed workload (which may
		// swap the pipeline in place — state migrates, results continue).
		s.observe(events, sealed)
	}
	st.Late = s.late
	st.Buffered = s.pipe.buf.Buffered()
	st.Epoch = s.epoch
	s.maybeSnapshotLocked()
	return st, commit, nil
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

// distributedLocked gates the topology mutations: they only mean
// something on a server executing on workers. Callers hold s.mu.
func (s *Server) distributedLocked() error {
	if s.closed {
		return ErrClosed
	}
	if len(s.workers) == 0 {
		return fmt.Errorf("%w: server is not distributed (no workers configured)", ErrConflict)
	}
	return nil
}

// hasWorker reports whether addr is in the server's worker set.
func (s *Server) hasWorker(addr string) bool {
	for _, w := range s.workers {
		if w == addr {
			return true
		}
	}
	return false
}

// AddWorker admits a worker process at addr into the distributed
// topology, or revives one that previously died. The worker carries no
// shards until MoveShard (or a failover) places some; the address also
// joins the server's worker set so later re-plans and checkpoint
// restores rebuild onto it.
func (s *Server) AddWorker(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.distributedLocked(); err != nil {
		return err
	}
	if addr == "" {
		return errors.New("server: empty worker address")
	}
	if s.pipe != nil {
		if err := s.pipe.router.AddWorker(addr); err != nil {
			return fmt.Errorf("%w: %v", ErrConflict, err)
		}
	} else if s.hasWorker(addr) {
		return fmt.Errorf("%w: worker %s already present", ErrConflict, addr)
	}
	if !s.hasWorker(addr) {
		s.workers = append(s.workers, addr)
	}
	return nil
}

// MoveShard reassigns one shard to the worker at addr through the
// zero-gap migration: the router barriers, exports the shard's
// canonical state at the horizon, transfers it, and the target resumes
// behind the same emit floors — the result stream continues exactly.
// Serializes with ingest on s.mu, so no batch is in flight mid-move.
func (s *Server) MoveShard(shard int, addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.distributedLocked(); err != nil {
		return err
	}
	if s.engineErr != nil {
		return fmt.Errorf("%w: %v (re-register queries or restore a valid checkpoint)", ErrEngine, s.engineErr)
	}
	if s.pipe == nil {
		return fmt.Errorf("%w: no live pipeline (register queries first)", ErrConflict)
	}
	rr := s.pipe.router
	err := rr.Rebalance(shard, addr)
	if perr := rr.Err(); perr != nil {
		return s.poisonLocked(perr)
	}
	if err != nil {
		// Keep the router's typed errors (e.g. ErrShardDown) reachable
		// through the HTTP-status sentinel.
		return fmt.Errorf("%w: %w", ErrConflict, err)
	}
	return nil
}

// DrainWorker migrates every shard off the worker at addr (each via
// the same zero-gap move as MoveShard) and retires it from the
// topology and the server's worker set, so later re-plans stop
// dialing it. The last live worker refuses to drain.
func (s *Server) DrainWorker(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.distributedLocked(); err != nil {
		return err
	}
	if s.engineErr != nil {
		return fmt.Errorf("%w: %v (re-register queries or restore a valid checkpoint)", ErrEngine, s.engineErr)
	}
	if !s.hasWorker(addr) {
		return fmt.Errorf("%w: worker %s", ErrNotFound, addr)
	}
	if s.pipe != nil {
		rr := s.pipe.router
		err := rr.Drain(addr)
		if perr := rr.Err(); perr != nil {
			return s.poisonLocked(perr)
		}
		if err != nil {
			return fmt.Errorf("%w: %w", ErrConflict, err)
		}
	} else if len(s.workers) == 1 {
		return fmt.Errorf("%w: cannot drain the last worker", ErrConflict)
	}
	kept := s.workers[:0]
	for _, w := range s.workers {
		if w != addr {
			kept = append(kept, w)
		}
	}
	s.workers = kept
	return nil
}

// TopologyNow reports the distributed topology (nil when the server is
// single-process or has no live pipeline).
func (s *Server) TopologyNow() *router.Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipe != nil && s.pipe.router != nil {
		t := s.pipe.router.Topology()
		return &t
	}
	return nil
}

// observe folds one ingested batch into the adaptive observation window
// and re-evaluates the plan when the window spans AdaptiveEpoch ticks.
// Events below sealed — the release horizon before the batch was pushed
// — were judged late by the reorder buffer and (under the drop policy)
// never executed, so they must not inflate the estimate: the plan
// should fit the traffic the engine actually processes. Callers hold
// s.mu and have barriered the pipeline.
func (s *Server) observe(events []stream.Event, sealed int64) {
	if len(events) == 0 {
		return
	}
	if s.obs.keys == nil {
		s.obs.keys = make(map[uint64]struct{})
	}
	epoch := s.cfg.AdaptiveEpoch
	for i := range events {
		t := events[i].Time
		if t < sealed {
			continue
		}
		if s.obs.start < 0 {
			s.obs.start, s.obs.last = t, t
		}
		if t > s.obs.last+epoch*adaptiveJumpGuard {
			// Time jump (a far-future flush event, a clock skip, a gap in
			// a replayed stream): close the window at its last dense tick
			// instead of letting one timestamp stretch the span and
			// dilute the rate estimate toward zero — one synthetic event
			// must not re-plan the server onto a low-η plan, and a
			// densely observed wide window must still count.
			if s.obs.last-s.obs.start+1 >= epoch {
				s.evaluateAdaptive()
			}
			s.resetObs()
			s.obs.start, s.obs.last = t, t
		}
		if t > s.obs.last {
			s.obs.last = t
		}
		s.obs.keys[events[i].Key] = struct{}{}
		s.obs.events++
	}
	if s.obs.last-s.obs.start+1 >= epoch {
		s.evaluateAdaptive()
		s.resetObs()
	}
}

// resetObs clears the adaptive observation window for its next span.
func (s *Server) resetObs() {
	s.obs.events = 0
	s.obs.start = -1
	s.obs.last = 0
	if len(s.obs.keys) > obsKeysRetain {
		// Go maps never shrink: one high-cardinality burst must not pin
		// its bucket array for the server's lifetime (the observation
		// counterpart of the executors' egressRetain rule).
		s.obs.keys = make(map[uint64]struct{})
	} else {
		clear(s.obs.keys)
	}
}

// obsKeysRetain bounds the retained capacity of the adaptive
// observation window's key set, in distinct keys.
const obsKeysRetain = 1 << 16

// adaptiveJumpGuard is the factor by which an event may outrun the
// observation window's newest tick (in AdaptiveEpoch units) before it
// is judged a time jump that closes the window rather than the stream's
// own pace widening it.
const adaptiveJumpGuard = 8

// evaluateAdaptive re-prices the running plan under the observed
// per-key event rate and re-plans in place when the cost model finds a
// structurally better plan by at least the configured overpay factor.
// The estimate follows Observation 1's unit: aggregation is per key, so
// the rate that prices a raw-reading window is events per tick per
// active key — a cardinality shift moves it as much as a rate shift.
func (s *Server) evaluateAdaptive() {
	ticks := s.obs.last - s.obs.start + 1
	keys := len(s.obs.keys)
	if ticks <= 0 || keys == 0 {
		return
	}
	// Float arithmetic: a single far-future event (the documented flush
	// idiom) makes ticks enormous, and keys·ticks must neither overflow
	// nor panic — it just waters the estimate down toward the clamp.
	eta := int64(math.Round(float64(s.obs.events) / (float64(ticks) * float64(keys))))
	if eta < 1 {
		eta = 1
	}
	s.lastEta = eta
	s.lastKeys = keys
	cur := s.planEta
	if cur < 1 {
		cur = 1
	}
	if eta == cur {
		s.lastOverpay = 1
		return
	}
	adv, err := s.advise(eta)
	if err != nil {
		return
	}
	s.lastOverpay = adv.Overpay()
	if !adv.Reoptimize || adv.Overpay() < s.cfg.AdaptiveOverpay {
		return
	}
	prev := s.planEta
	s.planEta = eta
	if err := s.replan(); err != nil {
		s.planEta = prev
		return
	}
	s.replans.Adaptive++
}

// advise re-runs the optimizer under eta and compares it against the
// deployed plan's structure re-priced at the same rate.
func (s *Server) advise(eta int64) (adaptive.Advice, error) {
	if s.pipe == nil {
		return adaptive.Advice{}, fmt.Errorf("server: no deployed plan")
	}
	adv, err := adaptive.NewAdvisor(s.pipe.plan.Union, s.fn, s.optimizeOptions(), s.pipe.plan.Optimization)
	if err != nil {
		return adaptive.Advice{}, err
	}
	return adv.Evaluate(eta)
}

// Queries lists the live queries, sorted by ID.
func (s *Server) Queries() []QueryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueryInfo, 0, len(s.queries))
	for _, reg := range s.queries {
		out = append(out, reg.info(s.fn, s.param))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
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

// StatsNow reports the current server state. The engine-update counter
// is read after a barrier, so it is consistent with everything ingested
// so far.
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
	if s.pipe != nil {
		st.ReorderCapDropped = s.pipe.buf.CapDropped()
		st.ReorderCapReleased = s.pipe.buf.CapReleased()
	} else if s.carry != nil {
		st.ReorderCapDropped = s.carry.CapDropped
		st.ReorderCapReleased = s.carry.CapReleased
	}
	if s.pipe != nil {
		s.pipe.runner.Barrier()
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

// Health reports the server's current health.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return Health{Status: "closed", Reason: "server closed"}
	case s.walErr != nil:
		return Health{Status: "degraded", Reason: fmt.Sprintf("durable log failed: %v (reads still serve; restart to recover)", s.walErr)}
	case s.engineErr != nil:
		return Health{Status: "degraded", Reason: fmt.Sprintf("engine failure: %v (re-register queries or restore a checkpoint)", s.engineErr)}
	}
	return Health{Status: "ok", Ready: true}
}

// Close tears down the pipeline and closes every result ring. Streaming
// readers drain and finish; subsequent mutations return ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.pipe != nil {
		s.teardown()
	}
	for _, reg := range s.queries {
		reg.ring.closeRing()
	}
}
