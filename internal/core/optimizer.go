// Package core is the paper's primary contribution: the cost-based
// optimizer for multi-window aggregate queries. It combines the window
// coverage graph (internal/wcg), the cost model (internal/cost) and the
// factor-window search (internal/factor) into the two end-to-end
// procedures of the paper:
//
//   - Optimize with Factors disabled runs Algorithm 1 and returns the
//     min-cost WCG exploiting only the windows present in the query;
//   - Optimize with Factors enabled runs Algorithm 3: it first expands the
//     augmented WCG with the best factor window per intermediate vertex
//     (Algorithm 2 under "covered by" semantics, Algorithm 5 under
//     "partitioned by"), then runs Algorithm 1 over the expanded graph.
//
// Holistic aggregate functions admit no sharing (Section III-A); for them
// the optimizer returns a graph in which every window reads the raw
// stream, i.e. the original plan.
package core

import (
	"fmt"
	"math/big"
	"time"

	"factorwindows/internal/agg"
	"factorwindows/internal/cost"
	"factorwindows/internal/factor"
	"factorwindows/internal/wcg"
	"factorwindows/internal/window"
)

// Options configures the optimizer.
type Options struct {
	// Factors enables the factor-window expansion (Algorithm 3). With it
	// disabled the optimizer runs plain Algorithm 1.
	Factors bool

	// Model is the cost model; the zero value is replaced by cost.Default
	// (η = 1).
	Model cost.Model

	// Semantics overrides the coverage relation the optimizer exploits.
	// agg.Auto (the zero value) selects it from the aggregate function.
	// Forcing agg.PartitionedBy is always sound (partition edges are a
	// subset of coverage edges); forcing agg.CoveredBy is rejected for
	// functions that are not overlap-safe (Theorem 6). The paper's
	// evaluation runs MIN under both semantics (Section V-B).
	Semantics agg.Semantics
}

// Result is the outcome of an optimization run.
type Result struct {
	// Fn and Semantics record the aggregate function and the coverage
	// semantics the optimizer used for it.
	Fn        agg.Fn
	Semantics agg.Semantics

	// Graph is the min-cost WCG (augmented; factor windows included when
	// they survived pruning). Its Parent pointers define the rewritten
	// plan's forest.
	Graph *wcg.Graph

	// NaiveCost is the cost of the original plan (every window evaluated
	// independently); OptimizedCost is the total cost of the min-cost WCG.
	NaiveCost     *big.Int
	OptimizedCost *big.Int

	// FactorWindows lists the factor windows present in the final graph.
	FactorWindows []window.Window

	// Elapsed is the wall-clock optimization time (Fig. 12 measures this).
	Elapsed time.Duration
}

// Speedup returns the predicted speedup γ_C = C_naive / C_optimized.
func (r *Result) Speedup() *big.Rat { return cost.Speedup(r.NaiveCost, r.OptimizedCost) }

// resolveSemantics applies the Options.Semantics override, rejecting
// unsound combinations.
func resolveSemantics(fn agg.Fn, forced agg.Semantics) (agg.Semantics, error) {
	auto := agg.SemanticsOf(fn)
	switch forced {
	case agg.Auto:
		return auto, nil
	case agg.NoSharing:
		return agg.NoSharing, nil
	case agg.PartitionedBy:
		if !agg.Mergeable(fn) {
			return 0, fmt.Errorf("core: %v is holistic and cannot use %v", fn, forced)
		}
		return agg.PartitionedBy, nil
	case agg.CoveredBy:
		if !agg.OverlapSafe(fn) {
			return 0, fmt.Errorf("core: %v is not overlap-safe; %v sharing would be wrong", fn, forced)
		}
		return agg.CoveredBy, nil
	default:
		return 0, fmt.Errorf("core: unknown semantics %d", forced)
	}
}

// Optimize runs the cost-based optimizer over the window set for the
// given aggregate function.
func Optimize(set *window.Set, fn agg.Fn, opt Options) (*Result, error) {
	start := time.Now()
	if !fn.Valid() {
		return nil, fmt.Errorf("core: invalid aggregate function %v", fn)
	}
	if set == nil || set.Len() == 0 {
		return nil, fmt.Errorf("core: empty window set")
	}
	sem, err := resolveSemantics(fn, opt.Semantics)
	if err != nil {
		return nil, err
	}
	model := opt.Model
	if model.Eta == 0 {
		model = cost.Default
	}
	g, err := wcg.Build(set, sem, model)
	if err != nil {
		return nil, err
	}
	g.Augment()
	g.MinCost()
	g.PruneFactors()

	if opt.Factors && sem != agg.NoSharing {
		gf, err := wcg.Build(set, sem, model)
		if err != nil {
			return nil, err
		}
		gf.Augment()
		expandWithFactors(gf, sem)
		gf.MinCost()
		pruneHarmfulFactors(gf)
		gf.PruneFactors()
		// Final cost-based choice. Algorithm 3's per-vertex benefit test
		// assumes every downstream window will read from the inserted
		// factor; after Algorithm 1's per-node minimisation some pick
		// other parents, so an inserted factor can fail to pay for
		// itself. pruneHarmfulFactors removes those, and as a last
		// resort we keep the factor-free plan when it is no worse.
		if gf.TotalCost().Cmp(g.TotalCost()) < 0 {
			g = gf
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

// pruneHarmfulFactors repeatedly removes the factor window whose realized
// benefit in the current min-cost WCG is most negative: the cost its
// children would pay at their next-best parent, minus what they pay now,
// minus the factor's own cost. Algorithm 3 inserts factors based on the
// assumption that all downstream windows adopt them; when Algorithm 1
// re-parents some of them elsewhere, a factor can cost more than it saves.
// MinCost is re-run after every removal. The loop terminates because each
// iteration removes one node.
func pruneHarmfulFactors(g *wcg.Graph) {
	for {
		var worst *wcg.Node
		var worstGain *big.Int
		for _, f := range g.Nodes() {
			if !f.Factor {
				continue
			}
			gain := new(big.Int).Neg(f.Cost)
			for _, c := range g.Children(f) {
				alt := bestAlternativeCost(g, c, f)
				gain.Add(gain, alt).Sub(gain, c.Cost)
			}
			if gain.Sign() < 0 && (worstGain == nil || gain.Cmp(worstGain) < 0) {
				worst, worstGain = f, gain
			}
		}
		if worst == nil {
			return
		}
		g.Remove(worst)
		g.MinCost()
	}
}

// bestAlternativeCost returns the cheapest cost for node c if the node
// skip were absent: its raw-read cost or the cost via any other coverer.
func bestAlternativeCost(g *wcg.Graph, c, skip *wcg.Node) *big.Int {
	best := g.Model.Initial(c.W, g.R)
	for _, p := range c.In() {
		if p == skip || p.Root {
			continue
		}
		alt := g.Model.Shared(c.W, p.W, g.R)
		if alt.Cmp(best) < 0 {
			best = alt
		}
	}
	return best
}

// expandWithFactors performs lines 2–4 of Algorithm 3: for every vertex of
// the augmented WCG that has downstream windows (the "interesting" pattern
// of Figure 8(a)), find its best factor window and splice it in with the
// Figure-9 edges. The original edges are kept — Algorithm 1 takes minima,
// so extra edges can only improve the final cost, and factor windows that
// attract no children are pruned afterwards.
func expandWithFactors(g *wcg.Graph, sem agg.Semantics) {
	exists := func(w window.Window) bool { return g.Lookup(w) != nil }

	// Snapshot the vertices and their downstream sets first: the paper
	// iterates over the original graph, not one mutated mid-flight.
	type job struct {
		node       *wcg.Node
		downstream []*wcg.Node
	}
	var jobs []job
	for _, n := range g.Nodes() {
		if len(n.Out()) == 0 {
			continue // Figure 8(b): no downstream windows, uninteresting
		}
		ds := append([]*wcg.Node(nil), n.Out()...)
		jobs = append(jobs, job{node: n, downstream: ds})
	}

	for _, j := range jobs {
		dws := make([]window.Window, len(j.downstream))
		for i, d := range j.downstream {
			dws[i] = d.W
		}
		var (
			cand factor.Candidate
			ok   bool
		)
		switch sem {
		case agg.CoveredBy:
			cand, ok = factor.BestCoveredBy(j.node.W, dws, g.R, exists)
		case agg.PartitionedBy:
			cand, ok = factor.BestPartitioned(j.node.W, dws, g.R, exists)
		}
		if !ok {
			continue
		}
		fn := g.AddFactor(cand.W)
		g.AddEdge(j.node, fn)
		for _, d := range j.downstream {
			g.AddEdge(fn, d)
		}
	}
}
