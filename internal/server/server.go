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
// pipeline is torn down, every shard carries its engine state out
// (parallel.Carry), and the new pipeline resumes it: an unchanged plan
// restores it exactly, and a changed one imports its canonical form
// wherever a window survives into the new plan — whatever the sharing
// structure on either side (see engine/migrate.go for the exactness
// argument). The visible contract:
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
	"net"
	"sync"
	"sync/atomic"
	"time"

	"factorwindows/internal/admit"
	"factorwindows/internal/agg"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/reorder"
	"factorwindows/internal/router"
	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
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
	// snapshots on the barrier path.
	WorkerCheckpointEvery int64
}

// pipeline is one epoch's execution stack: reorder buffer → key-sharded
// runner → routing sink → per-query rings. The runner is the one shard
// tier whichever shards it drives — goroutines in process, or sessions
// on fwworker processes, in which case router is the same runner's
// topology face (placement, failover, rebalance); nil in process.
// muted silences the epoch's result stream while the pipeline is torn
// down, so the teardown flush of instances that migrated to the next
// epoch (or belong to unregistered queries) is discarded; the engine's
// per-node emit floors suppress partial instances.
type pipeline struct {
	plan   *multiquery.Plan
	runner *parallel.Runner
	router *router.Runner
	buf    *reorder.Buffer
	muted  *atomic.Bool
	rings  map[string]*ring // immutable snapshot of the epoch's queries
}

// Server hosts a dynamic set of ASAQL queries over one event stream.
// Every mutation serializes on mu through the order point (ingest.go;
// the engine consumes an in-order stream, so ingestion is inherently
// sequential); result reads only touch the per-query rings and run
// lock-free with respect to mu.
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
// counts swaps that could not carry the old pipeline's state (a failed
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
