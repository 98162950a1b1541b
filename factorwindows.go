// Package factorwindows is a cost-based query optimizer and execution
// engine for multi-window streaming aggregates, reproducing "Factor
// Windows: Cost-based Query Rewriting for Optimizing Correlated Window
// Aggregates" (Wu, Bernstein, Raizman, Pavlopoulou; ICDE 2022).
//
// A query computes one aggregate function (MIN, MAX, SUM, COUNT, AVG,
// STDEV, exact MEDIAN, or the sketch-backed PERCENTILE, COUNT(DISTINCT)
// and TOPK) over several correlated windows of the same stream. The
// optimizer builds the window coverage graph (WCG) of the window set,
// finds the min-cost sharing structure (Algorithm 1), and optionally
// inserts factor windows — auxiliary windows not in the query that
// further cut computation (Algorithms 2–5). The resulting plan is
// executed by a single-core, push-based streaming engine; a general
// stream-slicing baseline (in the style of Scotty) is included for
// comparison.
//
// # Quick start
//
//	q, _ := factorwindows.ParseQuery(`
//	    SELECT DeviceID, MIN(Temp) FROM Input
//	    GROUP BY DeviceID, Windows(
//	        Window('20 min', TumblingWindow(minute, 20)),
//	        Window('30 min', TumblingWindow(minute, 30)),
//	        Window('40 min', TumblingWindow(minute, 40)))`)
//	c, _ := factorwindows.Compile(q, factorwindows.Options{Factors: true})
//	sink := &factorwindows.CollectingSink{}
//	c.Run(events, sink)
//
// See the examples/ directory for runnable programs and cmd/fwbench for
// the full reproduction of the paper's evaluation.
//
// Beyond the paper, the library implements its stated future-work items:
// a Steiner-pool factor search (OptimizeSteiner), sketch-backed holistic
// aggregates with sharing (the Percentile, Distinct and TopK functions —
// ordinary plans on the one engine; RunQuantile and RunDistinct are
// shorthands), Apache Flink DataStream code generation (Flink), and
// key-sharded parallel execution (RunParallel). See extensions.go and
// the "Aggregate functions: exact and sketch-backed" section of the
// README.
package factorwindows

import (
	"fmt"

	"factorwindows/internal/agg"
	"factorwindows/internal/asaql"
	"factorwindows/internal/core"
	"factorwindows/internal/cost"
	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/slicing"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/workload"
)

// Window is a range/slide window W⟨r,s⟩ in integer ticks.
type Window = window.Window

// WindowSet is a duplicate-free collection of windows.
type WindowSet = window.Set

// Tumbling returns the tumbling window W⟨r,r⟩.
func Tumbling(r int64) Window { return window.Tumbling(r) }

// Hopping returns the hopping window W⟨r,s⟩.
func Hopping(r, s int64) Window { return window.Hopping(r, s) }

// NewWindow validates and returns W⟨r,s⟩.
func NewWindow(r, s int64) (Window, error) { return window.New(r, s) }

// NewWindowSet builds a window set from the given windows.
func NewWindowSet(ws ...Window) (*WindowSet, error) { return window.NewSet(ws...) }

// Covers reports whether w1 is covered by w2 (Theorem 1 of the paper).
func Covers(w1, w2 Window) bool { return window.Covers(w1, w2) }

// Partitions reports whether w1 is partitioned by w2 (Theorem 4).
func Partitions(w1, w2 Window) bool { return window.Partitions(w1, w2) }

// AggFn identifies an aggregate function.
type AggFn = agg.Fn

// The supported aggregate functions. Median is exact and holistic (the
// paper's fallback: no sharing). Percentile, Distinct and TopK keep a
// mergeable sketch per window instance instead, so they share like
// algebraic functions and answer approximately; Percentile and TopK read
// their parameter (φ, rank k) from Plan.Param.
const (
	Min        = agg.Min
	Max        = agg.Max
	Sum        = agg.Sum
	Count      = agg.Count
	Avg        = agg.Avg
	StdDev     = agg.StdDev
	Median     = agg.Median
	Percentile = agg.Percentile
	Distinct   = agg.Distinct
	TopK       = agg.TopK
)

// ParseAggFn parses an aggregate function name such as "MIN".
func ParseAggFn(name string) (AggFn, error) { return agg.ParseFn(name) }

// Semantics selects the coverage relation used for sharing.
type Semantics = agg.Semantics

// Semantics values. AutoSemantics (the zero value) derives the relation
// from the aggregate function: "covered by" for MIN/MAX, "partitioned
// by" for SUM/COUNT/AVG/STDEV and the sketch-backed functions, no
// sharing for exact MEDIAN.
const (
	AutoSemantics = agg.Auto
	NoSharing     = agg.NoSharing
	PartitionedBy = agg.PartitionedBy
	CoveredBy     = agg.CoveredBy
)

// Event is one input record.
type Event = stream.Event

// Result is one window-aggregate output row.
type Result = stream.Result

// Sink consumes results.
type Sink = stream.Sink

// CollectingSink stores all results (for inspection and tests).
type CollectingSink = stream.CollectingSink

// CountingSink counts results without storing them (for benchmarks).
type CountingSink = stream.CountingSink

// Plan is an executable multi-window aggregation plan.
type Plan = plan.Plan

// Options configures the optimizer. The zero value runs Algorithm 1
// without factor windows under automatic semantics and η = 1.
type Options struct {
	// Factors enables factor-window exploration (Algorithm 3).
	Factors bool
	// Semantics optionally forces the coverage relation; see the
	// Semantics constants.
	Semantics Semantics
	// Eta is the assumed steady event rate per tick for the cost model
	// (default 1, the paper's setting).
	Eta int64
}

// Optimization is the outcome of optimizing a window set: the chosen
// plan plus the cost-model bookkeeping behind it.
type Optimization struct {
	// Plan is the rewritten plan (Kind Rewritten or Factored).
	Plan *Plan
	// Original is the naive plan evaluating each window independently.
	Original *Plan
	// PredictedSpeedup is γ_C = C_original / C_optimized per the cost
	// model of Section III-B.
	PredictedSpeedup float64
	// FactorWindows lists the auxiliary windows the optimizer inserted.
	FactorWindows []Window

	res *core.Result
}

// Explain renders the min-cost WCG behind the optimization.
func (o *Optimization) Explain() string { return o.res.Graph.String() }

// Dot renders the WCG in Graphviz DOT form.
func (o *Optimization) Dot() string { return o.res.Graph.Dot() }

// Optimize rewrites the window set's evaluation under the given
// aggregate function, returning the optimized plan and its provenance.
func Optimize(set *WindowSet, fn AggFn, opts Options) (*Optimization, error) {
	res, err := core.Optimize(set, fn, core.Options{
		Factors:   opts.Factors,
		Semantics: opts.Semantics,
		Model:     cost.Model{Eta: opts.Eta},
	})
	if err != nil {
		return nil, err
	}
	kind := plan.Rewritten
	if opts.Factors {
		kind = plan.Factored
	}
	return newOptimization(set, fn, res, kind)
}

// newOptimization rewrites an optimizer result into its executable plan
// and pairs it with the original plan and the cost bookkeeping.
func newOptimization(set *WindowSet, fn AggFn, res *core.Result, kind plan.Kind) (*Optimization, error) {
	p, err := plan.FromGraph(res.Graph, fn, kind)
	if err != nil {
		return nil, err
	}
	orig, err := plan.NewOriginal(set, fn)
	if err != nil {
		return nil, err
	}
	speedup, _ := res.Speedup().Float64()
	return &Optimization{
		Plan:             p,
		Original:         orig,
		PredictedSpeedup: speedup,
		FactorWindows:    res.FactorWindows,
		res:              res,
	}, nil
}

// OriginalPlan returns the unshared plan evaluating every window
// independently — the baseline the paper calls the "original plan".
func OriginalPlan(set *WindowSet, fn AggFn) (*Plan, error) {
	return plan.NewOriginal(set, fn)
}

// OptimizeSteiner is an alternative optimizer mode that approaches factor
// window placement as the directed Steiner-style problem of the paper's
// footnote 3: it inserts the entire eligible candidate pool into the WCG
// (bounded by poolCap; ≤ 0 uses a default), runs Algorithm 1, and prunes
// candidates that do not pay for themselves. It searches a superset of
// Algorithm 3's per-vertex candidates and its plans are never costlier
// than the factor-free rewriting.
func OptimizeSteiner(set *WindowSet, fn AggFn, opts Options, poolCap int) (*Optimization, error) {
	res, err := core.OptimizeSteiner(set, fn, core.Options{
		Factors:   true,
		Semantics: opts.Semantics,
		Model:     cost.Model{Eta: opts.Eta},
	}, poolCap)
	if err != nil {
		return nil, err
	}
	return newOptimization(set, fn, res, plan.Factored)
}

// Query is a parsed ASA-style declarative query.
type Query = asaql.Query

// ParseQuery parses the ASA-style SQL dialect of the paper's Figure 1(a).
func ParseQuery(src string) (*Query, error) { return asaql.Parse(src) }

// Compiled is a query compiled to an executable plan.
type Compiled struct {
	Query        *Query
	Optimization *Optimization

	filter func(key uint64, value float64) bool
}

// Compile optimizes the query's window set for its aggregate function
// and returns the executable bundle. Queries with several aggregate calls
// in the SELECT list must go through CompileAll.
func Compile(q *Query, opts Options) (*Compiled, error) {
	if q == nil {
		return nil, fmt.Errorf("factorwindows: nil query")
	}
	if len(q.Aggregates) > 1 {
		return nil, fmt.Errorf("factorwindows: query has %d aggregate calls; use CompileAll", len(q.Aggregates))
	}
	return compileFn(q, asaql.AggCall{Fn: q.Fn, Param: q.Param}, opts)
}

// CompileAll compiles a query with one or more aggregate calls, returning
// one executable bundle per call (each aggregate gets its own optimized
// plan over the shared window set — MIN may share under "covered by"
// while AVG in the same query shares under "partitioned by").
func CompileAll(q *Query, opts Options) ([]*Compiled, error) {
	if q == nil {
		return nil, fmt.Errorf("factorwindows: nil query")
	}
	out := make([]*Compiled, 0, len(q.Aggregates))
	for _, call := range q.Aggregates {
		c, err := compileFn(q, call, opts)
		if err != nil {
			return nil, fmt.Errorf("factorwindows: %v: %w", call.Fn, err)
		}
		out = append(out, c)
	}
	return out, nil
}

func compileFn(q *Query, call asaql.AggCall, opts Options) (*Compiled, error) {
	set, err := q.Set()
	if err != nil {
		return nil, err
	}
	o, err := Optimize(set, call.Fn, opts)
	if err != nil {
		return nil, err
	}
	o.Plan.Param, o.Original.Param = call.Param, call.Param
	filter, err := q.Filter()
	if err != nil {
		return nil, err
	}
	return &Compiled{Query: q, Optimization: o, filter: filter}, nil
}

// Run executes the compiled plan over the events, delivering every
// window result to sink. Events must be in non-decreasing time order.
// The query's WHERE clause, if any, filters events before any window
// sees them.
func (c *Compiled) Run(events []Event, sink Sink) error {
	if c.filter != nil {
		kept := make([]Event, 0, len(events))
		for _, e := range events {
			if c.filter(e.Key, e.Value) {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	_, err := engine.Run(c.Optimization.Plan, events, sink)
	return err
}

// Runner is an incremental plan executor for streaming input: feed
// batches with Process, then Close to flush.
type Runner = engine.Runner

// NewRunner compiles a plan for incremental execution.
func NewRunner(p *Plan, sink Sink) (*Runner, error) { return engine.New(p, sink) }

// Run executes a plan over a complete event slice.
func Run(p *Plan, events []Event, sink Sink) error {
	_, err := engine.Run(p, events, sink)
	return err
}

// RunSlicing evaluates the window set with the general stream-slicing
// baseline (Scotty-style) instead of a rewritten plan.
func RunSlicing(set *WindowSet, fn AggFn, events []Event, sink Sink) error {
	_, err := slicing.Run(set, fn, events, sink)
	return err
}

// StreamConfig describes a generated event stream.
type StreamConfig = workload.StreamConfig

// SyntheticStream generates a constant-pace synthetic stream (the
// paper's Synthetic-1M/10M datasets).
func SyntheticStream(cfg StreamConfig) []Event { return workload.Synthetic(cfg) }

// SensorStream generates a DEBS-2012-like manufacturing sensor stream
// (the stand-in for the paper's Real-32M dataset).
func SensorStream(cfg StreamConfig) []Event { return workload.DEBSLike(cfg) }

// SortResults orders results canonically (window, start, key).
func SortResults(rs []Result) { stream.SortResults(rs) }
