package factorwindows

import (
	"io"

	"factorwindows/internal/adaptive"
	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/flinkgen"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/reorder"
	"factorwindows/internal/sliding"
	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
)

// This file exposes the substrate extensions around the core optimizer:
// the incremental sliding-window baseline, bounded-disorder ingestion,
// engine checkpointing, multi-query optimization, and stream I/O.

// RunSliding evaluates the window set with per-window incremental
// aggregation (panes + a Two-Stacks FIFO aggregator, after Tangwongsan
// et al., the paper's reference [45]). No cross-window sharing happens;
// this is the "smart single-window engine" baseline.
func RunSliding(set *WindowSet, fn AggFn, events []Event, sink Sink) error {
	_, err := sliding.Run(set, fn, events, sink)
	return err
}

// FlinkOptions configures Flink DataStream code generation.
type FlinkOptions = flinkgen.Options

// Flink renders a plan as an Apache Flink DataStream job — the
// translation the paper performs for its Scotty comparison (Section V-F).
func Flink(p *Plan, opts FlinkOptions) (string, error) {
	return flinkgen.Generate(p, opts)
}

// ParallelRunner executes a plan across several key-sharded engines.
// The paper's experiments are single-core; this is the production
// scale-out: the stream partitions by key hash, every shard runs the
// identical rewritten plan, and the union of shard outputs equals the
// single-core output exactly. It is the same runner the server and the
// distributed tier drive, over goroutine shards here.
type ParallelRunner = parallel.Runner

// NewParallelRunner compiles the plan onto n key shards (n ≤ 0 selects
// GOMAXPROCS). Delivery is unordered: shards flush results to the sink
// as their buffers fill, interleaved across shards (each key's rows stay
// in order), which keeps the shards off a shared barrier. Call
// SetOrderedDrain(true) before the first Process for the server's
// reproducible shard-ordered sequence, visible at each Barrier.
func NewParallelRunner(p *Plan, sink Sink, n int) (*ParallelRunner, error) {
	return parallel.New(p, sink, n)
}

// RunParallel executes the plan over all events on n key shards, with
// NewParallelRunner's unordered delivery.
func RunParallel(p *Plan, events []Event, sink Sink, n int) error {
	_, err := parallel.Run(p, events, sink, n)
	return err
}

// QuantileOptions configures sketch-backed approximate quantile
// evaluation.
type QuantileOptions struct {
	// Phi is the quantile in (0, 1]; 0 defaults to 0.5 (MEDIAN).
	Phi float64
	// Factors enables factor-window exploration (Algorithm 3).
	Factors bool
}

// QuantileRunner evaluates approximate phi-quantiles (MEDIAN and friends)
// over a window set with shared computation: mergeable sketches make the
// holistic function algebraic, so the optimizer's "partitioned by"
// sharing — including factor windows — applies. This is the Section
// III-A future-work extension, executed by the one engine as the
// Percentile aggregate: a QuantileRunner is the engine Runner of the
// optimized plan (TotalUpdates counts the folds and sketch merges).
// Answers carry a small rank error governed by the library's sketch size
// (exact below that many values per instance).
type QuantileRunner = Runner

// sketchPlan optimizes the set for a sketch-backed function and carries
// the finalize-time parameter onto the plan.
func sketchPlan(set *WindowSet, fn AggFn, param float64, factors bool) (*Plan, error) {
	if param != 0 {
		if err := agg.ValidateParam(fn, param); err != nil {
			return nil, err
		}
	}
	o, err := Optimize(set, fn, Options{Factors: factors})
	if err != nil {
		return nil, err
	}
	o.Plan.Param = param
	return o.Plan, nil
}

// RunQuantile optimizes the set for a sketch-backed quantile, processes
// all events, and flushes. It is Optimize(set, Percentile, …) with
// Plan.Param = Phi, run on the engine.
func RunQuantile(set *WindowSet, opts QuantileOptions, events []Event, sink Sink) (*QuantileRunner, error) {
	p, err := sketchPlan(set, Percentile, opts.Phi, opts.Factors)
	if err != nil {
		return nil, err
	}
	return engine.Run(p, events, sink)
}

// NewQuantileRunner is the incremental form of RunQuantile.
func NewQuantileRunner(set *WindowSet, opts QuantileOptions, sink Sink) (*QuantileRunner, error) {
	p, err := sketchPlan(set, Percentile, opts.Phi, opts.Factors)
	if err != nil {
		return nil, err
	}
	return engine.New(p, sink)
}

// RestoreQuantileRunner resumes a quantile runner for the identical
// window set and Factors choice from a snapshot taken with its Snapshot
// method. Phi is a query-time parameter, not state, so a snapshot may be
// restored under a different Phi.
func RestoreQuantileRunner(set *WindowSet, opts QuantileOptions, sink Sink, snapshot []byte) (*QuantileRunner, error) {
	p, err := sketchPlan(set, Percentile, opts.Phi, opts.Factors)
	if err != nil {
		return nil, err
	}
	return engine.Restore(p, sink, snapshot)
}

// DistinctOptions configures HyperLogLog-backed COUNT DISTINCT.
type DistinctOptions struct {
	// Factors enables factor-window exploration (Algorithm 3).
	Factors bool
}

// DistinctRunner evaluates approximate COUNT(DISTINCT value) per window
// instance per key with shared computation. Distinct counting is
// holistic, but HyperLogLog sketches merge exactly (register-wise max),
// so the optimizer's "partitioned by" sharing applies and — unlike the
// quantile sketch — sharing introduces no error beyond the HLL's own
// ≈ 1.04/√(2^P) standard error. Like QuantileRunner it is the engine
// Runner, here of the optimized Distinct plan.
type DistinctRunner = Runner

// RunDistinct optimizes the set for sketch-backed distinct counting,
// processes all events, and flushes.
func RunDistinct(set *WindowSet, opts DistinctOptions, events []Event, sink Sink) (*DistinctRunner, error) {
	p, err := sketchPlan(set, Distinct, 0, opts.Factors)
	if err != nil {
		return nil, err
	}
	return engine.Run(p, events, sink)
}

// NewDistinctRunner is the incremental form of RunDistinct.
func NewDistinctRunner(set *WindowSet, opts DistinctOptions, sink Sink) (*DistinctRunner, error) {
	p, err := sketchPlan(set, Distinct, 0, opts.Factors)
	if err != nil {
		return nil, err
	}
	return engine.New(p, sink)
}

// RestoreDistinctRunner resumes a distinct-count runner for the identical
// window set and Factors choice from a snapshot taken with its Snapshot
// method.
func RestoreDistinctRunner(set *WindowSet, opts DistinctOptions, sink Sink, snapshot []byte) (*DistinctRunner, error) {
	p, err := sketchPlan(set, Distinct, 0, opts.Factors)
	if err != nil {
		return nil, err
	}
	return engine.Restore(p, sink, snapshot)
}

// ReorderPolicy selects the late-event policy of a ReorderBuffer.
type ReorderPolicy = reorder.Policy

// Late-event policies: DropLate discards events older than the disorder
// bound; AdjustLate rewrites their timestamp to the oldest open tick
// (ASA's "adjust" mode).
const (
	DropLate   = reorder.Drop
	AdjustLate = reorder.Adjust
)

// ReorderBuffer turns a stream with bounded disorder into the in-order
// stream the executors require.
type ReorderBuffer = reorder.Buffer

// NewReorderBuffer wraps a Runner (or any batch consumer) with a
// bounded-disorder buffer. Push accepts out-of-order batches; Close
// drains the buffer (the runner's own Close still flushes windows).
func NewReorderBuffer(r *Runner, bound int64, policy ReorderPolicy) (*ReorderBuffer, error) {
	return reorder.New(r, bound, policy, nil)
}

// Snapshot serializes a Runner's in-flight window state; see Restore.
func Snapshot(r *Runner) ([]byte, error) { return r.Snapshot() }

// Restore resumes a Runner for the identical plan from a snapshot taken
// with Snapshot; processing continues at the next batch.
func Restore(p *Plan, sink Sink, snapshot []byte) (*Runner, error) {
	return engine.Restore(p, sink, snapshot)
}

// MultiQuery is one subscriber in a jointly optimized query batch: an
// identifier plus the windows it wants over the shared stream.
type MultiQuery = multiquery.Query

// MultiPlan is the jointly optimized plan for a query batch.
type MultiPlan = multiquery.Plan

// RoutedResult is a window result tagged with its subscriber queries.
type RoutedResult = multiquery.Routed

// OptimizeAll merges the windows of several queries over the same stream
// and aggregate function, optimizes the union once (so queries share
// computation with each other), and routes each result row to its
// subscribers — the paper's IoT Central scenario.
func OptimizeAll(queries []MultiQuery, fn AggFn, opts Options) (*MultiPlan, error) {
	return multiquery.Optimize(queries, fn, core.Options{
		Factors:   opts.Factors,
		Semantics: opts.Semantics,
	})
}

// ReadEventsCSV parses "time,key,value" rows (optional header) and
// validates time ordering.
func ReadEventsCSV(r io.Reader) ([]Event, error) {
	return streamio.ReadEvents(r, "csv", true)
}

// ReadEventsJSONL parses one JSON event object per line and validates
// time ordering.
func ReadEventsJSONL(r io.Reader) ([]Event, error) {
	return streamio.ReadEvents(r, "jsonl", true)
}

// WriteEventsCSV writes events as CSV with a header.
func WriteEventsCSV(w io.Writer, events []Event) error {
	return streamio.WriteCSV(w, events)
}

// WriteResultsCSV writes window results as CSV with a header.
func WriteResultsCSV(w io.Writer, rs []Result) error {
	return streamio.WriteResultsCSV(w, rs)
}

// ValidateEvents checks the in-order input contract.
func ValidateEvents(events []Event) error { return stream.Validate(events) }

// RateEstimator tracks the observed events-per-tick rate (EWMA).
type RateEstimator = adaptive.RateEstimator

// ReoptimizeAdvice is the outcome of re-costing a deployed plan under an
// observed event rate.
type ReoptimizeAdvice = adaptive.Advice

// RateMonitor couples a rate estimator with periodic re-optimization
// checks (the paper's future-work item on dynamic cost estimates).
type RateMonitor = adaptive.Monitor

// NewRateMonitor builds a monitor for a deployed optimization: feed it
// the same batches the Runner processes, and it reports advice whenever
// the observed rate makes a different plan cheaper.
func NewRateMonitor(set *WindowSet, fn AggFn, opts Options, deployed *Optimization, epochTicks int64) (*RateMonitor, error) {
	adv, err := adaptive.NewAdvisor(set, fn, core.Options{
		Factors:   opts.Factors,
		Semantics: opts.Semantics,
	}, deployed.res)
	if err != nil {
		return nil, err
	}
	return &adaptive.Monitor{Advisor: adv, EpochTicks: epochTicks}, nil
}
