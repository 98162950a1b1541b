package core

import (
	"fmt"
	"time"

	"factorwindows/internal/agg"
	"factorwindows/internal/cost"
	"factorwindows/internal/factor"
	"factorwindows/internal/wcg"
	"factorwindows/internal/window"
)

// OptimizeSteiner is an alternative to Algorithm 3 that treats factor
// window placement as the directed Steiner-style problem footnote 3 of
// the paper describes: it inserts a large slice of the eligible candidate
// universe (factor.PoolPartitioned / factor.PoolCoveredBy, bounded by
// poolCap) *plus* Algorithm 3's own per-vertex candidates into the
// augmented WCG, wires every coverage edge, runs Algorithm 1's per-node
// minimisation, and then greedily prunes candidates whose realized
// benefit is negative — i.e. "insert all, keep what pays for itself".
// Pruning is monotone (each removal strictly lowers the total), but it
// converges to a local optimum that is incomparable to Algorithm 3's in
// general, so the final answer is the cheapest of three graphs: the
// pruned pool expansion, Algorithm 3's result, and the factor-free
// rewriting. OptimizeSteiner is therefore never worse than Optimize with
// Factors enabled; the gap-characterization tests measure how much closer
// it gets to the exhaustive optimum on small instances.
//
// poolCap bounds the number of candidates inserted (≤ 0 means
// DefaultSteinerPoolCap). MinCost over the expanded graph is quadratic in
// its size, so the cap keeps optimization time polynomial and bounded.
func OptimizeSteiner(set *window.Set, fn agg.Fn, opt Options, poolCap int) (*Result, error) {
	start := time.Now()
	if !fn.Valid() {
		return nil, fmt.Errorf("core: invalid aggregate function %v", fn)
	}
	if set == nil || set.Len() == 0 {
		return nil, fmt.Errorf("core: empty window set")
	}
	if poolCap <= 0 {
		poolCap = DefaultSteinerPoolCap
	}
	model := opt.Model
	if model.Eta == 0 {
		model = cost.Default
	}
	sem, err := resolveSemantics(fn, opt.Semantics)
	if err != nil {
		return nil, err
	}

	// Baseline: Algorithm 1 without factor windows.
	g, err := wcg.Build(set, sem, model)
	if err != nil {
		return nil, err
	}
	g.Augment()
	g.MinCost()
	g.PruneFactors()

	if sem != agg.NoSharing {
		gf, err := wcg.Build(set, sem, model)
		if err != nil {
			return nil, err
		}
		gf.Augment()
		// Algorithm 3's per-vertex candidates first (they carry their
		// Figure-9 edges), then the global pool on top.
		expandWithFactors(gf, sem)
		insertPool(gf, sem, poolCap)
		gf.MinCost()
		pruneHarmfulFactors(gf)
		gf.PruneFactors()
		if gf.TotalCost().Cmp(g.TotalCost()) < 0 {
			g = gf
		}
		// Algorithm 3's own local optimum can beat the pruned pool
		// expansion; keep whichever plan is cheapest.
		a3, err := Optimize(set, fn, Options{Factors: true, Semantics: sem, Model: model})
		if err != nil {
			return nil, err
		}
		if a3.Graph.TotalCost().Cmp(g.TotalCost()) < 0 {
			g = a3.Graph
		}
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal error: %w", err)
	}
	res := &Result{
		Fn:            fn,
		Semantics:     sem,
		Graph:         g,
		NaiveCost:     g.NaiveCost(),
		OptimizedCost: g.TotalCost(),
		Elapsed:       time.Since(start),
	}
	for _, n := range g.Nodes() {
		if n.Factor {
			res.FactorWindows = append(res.FactorWindows, n.W)
		}
	}
	return res, nil
}

// DefaultSteinerPoolCap bounds the candidate pool OptimizeSteiner inserts
// when the caller passes no cap.
const DefaultSteinerPoolCap = 128

// insertPool adds the full candidate pool to the augmented graph and
// wires every coverage (or partitioning) edge touching a candidate: edges
// from every node that can feed the candidate, and edges from the
// candidate to every node it can feed. Build has already wired the
// user-user edges, and the virtual root S(1,1) feeds everything.
func insertPool(g *wcg.Graph, sem agg.Semantics, poolCap int) {
	var users []window.Window
	for _, n := range g.UserNodes() {
		users = append(users, n.W)
	}
	var pool []window.Window
	switch sem {
	case agg.PartitionedBy:
		pool = factor.PoolPartitioned(users, g.R, poolCap)
	case agg.CoveredBy:
		pool = factor.PoolCoveredBy(users, poolCap)
	}
	rel := window.Covers
	if sem == agg.PartitionedBy {
		rel = window.Partitions
	}
	var added []*wcg.Node
	for _, c := range pool {
		if g.Lookup(c) != nil {
			continue // already a user window (or duplicate candidate)
		}
		if !cost.DividesPeriod(c, g.R) {
			continue // recurrence count would not be an integer
		}
		added = append(added, g.AddFactor(c))
	}
	// Wire edges touching candidates. The root S(1,1) feeds every
	// candidate, candidate-candidate chains are allowed, and existing
	// user-user edges are untouched.
	nodes := g.Nodes()
	isNew := make(map[*wcg.Node]bool, len(added))
	for _, n := range added {
		isNew[n] = true
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b || (!isNew[a] && !isNew[b]) {
				continue
			}
			// Edge a→b when b is covered/partitioned by a. The root covers
			// everything by construction.
			if a.Root || rel(b.W, a.W) {
				if !b.Root && !g.HasEdge(a, b) {
					g.AddEdge(a, b)
				}
			}
		}
	}
}
