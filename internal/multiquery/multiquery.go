// Package multiquery optimizes a whole *set of queries* together. The
// paper's motivating scenario (Section I) is Azure IoT Central hosting
// many concurrent dashboard queries over the same device stream, each
// with its own window sizes. Optimizing the union of all their windows
// as one window set lets queries share computation with each other —
// and gives the factor-window search a richer graph to work with —
// while each query still receives exactly its own result rows.
package multiquery

import (
	"fmt"
	"sort"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// Query is one subscriber: an identifier plus the windows it wants. All
// queries in a batch share the aggregate function, key and value columns
// (the IoT-dashboard pattern: same telemetry, different periods).
type Query struct {
	ID      string
	Windows []window.Window
}

// Plan is the jointly optimized execution plan for a query batch.
type Plan struct {
	// Fn is the common aggregate function.
	Fn agg.Fn

	// Combined is the single executable plan over the union window set.
	Combined *plan.Plan

	// Queries are the inputs the plan was optimized from.
	Queries []Query

	// Union is the deduplicated union of every query's windows — the
	// window set the optimization ran over (re-optimization under a new
	// cost model starts from it).
	Union *window.Set

	// Optimization carries the cost bookkeeping of the combined set.
	Optimization *core.Result

	// SeparateCost and CombinedCost compare the total cost of optimizing
	// each query alone vs. together (both with the same options).
	SeparateCost, CombinedCost string

	routes map[window.Window][]string
}

// Routed is one result row tagged with the queries it belongs to.
type Routed struct {
	QueryIDs []string
	Result   stream.Result
}

// Optimize merges the queries' windows, optimizes the union once, and
// prepares per-query routing.
func Optimize(queries []Query, fn agg.Fn, opts core.Options) (*Plan, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("multiquery: no queries")
	}
	union := &window.Set{}
	routes := make(map[window.Window][]string)
	for _, q := range queries {
		if q.ID == "" {
			return nil, fmt.Errorf("multiquery: query with empty ID")
		}
		if len(q.Windows) == 0 {
			return nil, fmt.Errorf("multiquery: query %s has no windows", q.ID)
		}
		for _, w := range q.Windows {
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("multiquery: query %s: %w", q.ID, err)
			}
			if contains(routes[w], q.ID) {
				return nil, fmt.Errorf("multiquery: query %s lists %v twice", q.ID, w)
			}
			routes[w] = append(routes[w], q.ID)
			if !union.Contains(w) {
				if err := union.Add(w); err != nil {
					return nil, err
				}
			}
		}
	}

	res, err := core.Optimize(union, fn, opts)
	if err != nil {
		return nil, err
	}
	kind := plan.Rewritten
	if opts.Factors {
		kind = plan.Factored
	}
	combined, err := plan.FromGraph(res.Graph, fn, kind)
	if err != nil {
		return nil, err
	}

	// Cost comparison: per-query optimization (no cross-query sharing)
	// vs. the union. Periods differ per query, so the comparison uses
	// each query's own optimum summed — an upper bound on what separate
	// deployments would cost relative to their own periods; we therefore
	// report both as strings rather than pretending they share a unit.
	separate := "n/a"
	total := int64(0)
	comparable := true
	for _, q := range queries {
		set, err := window.NewSet(q.Windows...)
		if err != nil {
			return nil, err
		}
		r, err := core.Optimize(set, fn, opts)
		if err != nil {
			return nil, err
		}
		if r.OptimizedCost.IsInt64() {
			total += r.OptimizedCost.Int64()
		} else {
			comparable = false
		}
	}
	if comparable {
		separate = fmt.Sprintf("%d (per-query periods)", total)
	}

	for w := range routes {
		sort.Strings(routes[w])
	}
	return &Plan{
		Fn:           fn,
		Combined:     combined,
		Queries:      queries,
		Union:        union,
		Optimization: res,
		SeparateCost: separate,
		CombinedCost: res.OptimizedCost.String(),
		routes:       routes,
	}, nil
}

func contains(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Subscribers returns the query IDs receiving results of w.
func (p *Plan) Subscribers(w window.Window) []string {
	return append([]string(nil), p.routes[w]...)
}

// Sink wraps emit in the plan's routing logic, producing a stream.Sink
// that any executor of Combined can drive: engine.Run for single-core
// execution, or parallel.New for key-sharded execution (the parallel
// runner serializes sink access, so emit needs no locking of its own).
// Results of factor windows and other unsubscribed internals are
// filtered out; every surviving result is tagged with its subscribers.
func (p *Plan) Sink(emit func(Routed)) stream.Sink {
	return &routingSink{plan: p, emit: emit}
}

// Run executes the combined plan over events, delivering every result to
// emit once, tagged with all subscribed queries.
func (p *Plan) Run(events []stream.Event, emit func(Routed)) error {
	_, err := engine.Run(p.Combined, events, p.Sink(emit))
	return err
}

// RunSink is the serving layer's result path: emit receives each fired
// window instance as one stream.Run tagged with the queries subscribed
// to its window — one route lookup per run, and no per-row window
// compare, because a run has exactly one window. Unsubscribed runs
// (factor windows, internals) are dropped. Like the run itself, ids and
// the columns are only valid for the duration of the callback.
func (p *Plan) RunSink(emit func(ids []string, run stream.Run)) stream.RunSink {
	return &routingRunSink{plan: p, emit: emit}
}

// RoutedBatch is one same-window run of result rows tagged with the
// queries subscribed to that window. Like stream.BatchSink batches, the
// Results slice is only valid for the duration of the callback —
// consumers must copy what they retain.
type RoutedBatch struct {
	QueryIDs []string
	Results  []stream.Result
}

// BatchSink is RunSink's row-form predecessor: emit receives whole
// same-window runs as []stream.Result, segmented out of row batches by
// comparing windows. Nothing on the serving path builds row batches any
// more; it remains for the benchmark harness's staged replay.
func (p *Plan) BatchSink(emit func(RoutedBatch)) stream.Sink {
	return &routingBatchSink{plan: p, emit: emit}
}

// routingRunSink hands each subscribed run to emit as it arrives.
type routingRunSink struct {
	plan *Plan
	emit func(ids []string, run stream.Run)

	// one-row columns of the per-row path, kept here so Emit does not
	// allocate them per call (sinks serve one goroutine at a time).
	key [1]uint64
	val [1]float64
}

// EmitRun implements stream.RunSink.
func (s *routingRunSink) EmitRun(r stream.Run) {
	if ids := s.plan.routes[r.W]; len(ids) > 0 {
		s.emit(ids, r)
	}
}

func (s *routingRunSink) Emit(r stream.Result) {
	s.key[0], s.val[0] = r.Key, r.Value
	s.EmitRun(stream.Run{W: r.W, Start: r.Start, End: r.End, Keys: s.key[:], Vals: s.val[:]})
}

// routingSink tags engine results with their subscriber queries.
type routingSink struct {
	plan *Plan
	emit func(Routed)
}

func (s *routingSink) Emit(r stream.Result) {
	ids := s.plan.routes[r.W]
	if len(ids) == 0 {
		return // factor windows and unsubscribed internals
	}
	s.emit(Routed{QueryIDs: ids, Result: r})
}

// EmitBatch implements stream.BatchSink. Batches arrive per fired
// window instance, so the route resolves once for the whole batch.
func (s *routingSink) EmitBatch(rs []stream.Result) {
	if len(rs) == 0 {
		return
	}
	curW := rs[0].W
	ids := s.plan.routes[curW]
	for i := range rs {
		if rs[i].W != curW {
			curW = rs[i].W
			ids = s.plan.routes[curW]
		}
		if len(ids) == 0 {
			continue
		}
		s.emit(Routed{QueryIDs: ids, Result: rs[i]})
	}
}

// routingBatchSink segments incoming batches into same-window runs and
// hands each subscribed run to emit in one call.
type routingBatchSink struct {
	plan *Plan
	emit func(RoutedBatch)
	one  [1]stream.Result // Emit's batch, here so it is not allocated per call
}

func (s *routingBatchSink) Emit(r stream.Result) {
	ids := s.plan.routes[r.W]
	if len(ids) == 0 {
		return
	}
	s.one[0] = r
	s.emit(RoutedBatch{QueryIDs: ids, Results: s.one[:]})
}

// EmitBatch implements stream.BatchSink. A shard's flush interleaves
// instances of several windows; each maximal same-window run resolves
// its subscribers once and is delivered whole.
func (s *routingBatchSink) EmitBatch(rs []stream.Result) {
	for i := 0; i < len(rs); {
		w := rs[i].W
		j := i + 1
		for j < len(rs) && rs[j].W == w {
			j++
		}
		if ids := s.plan.routes[w]; len(ids) > 0 {
			s.emit(RoutedBatch{QueryIDs: ids, Results: rs[i:j]})
		}
		i = j
	}
}
