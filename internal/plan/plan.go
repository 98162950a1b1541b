// Package plan represents executable multi-window aggregation plans and
// the query rewriting of Section III-C / Appendix B: turning a min-cost
// WCG into a hierarchical plan in which downstream windows consume the
// sub-aggregates of their upstream window, and rendering plans as
// Trill-style expressions (Figure 2) for inspection.
//
// A plan is a forest over window operators. Operators whose Parent is nil
// read the raw input stream (the MultiCast of the original plan);
// operators with a Parent read that operator's per-instance
// sub-aggregates. Operators for factor windows are not Exposed: their
// results feed downstream operators but are not part of the query output.
package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"factorwindows/internal/agg"
	"factorwindows/internal/wcg"
	"factorwindows/internal/window"
)

// Operator is one windowed GroupAggregate in a plan.
type Operator struct {
	W window.Window

	// Exposed marks operators whose results belong to the query output.
	// Factor-window operators are not exposed (Definition 6).
	Exposed bool

	// Parent is the upstream operator whose sub-aggregates this operator
	// consumes; nil means the operator reads the raw event stream.
	Parent *Operator

	// Children are the operators consuming this operator's output.
	Children []*Operator
}

// Name returns the window's display name, starring factor operators.
func (o *Operator) Name() string {
	if o.Exposed {
		return o.W.String()
	}
	return o.W.String() + "*"
}

// Plan is an executable multi-window aggregation plan.
type Plan struct {
	// Fn is the aggregate function applied in every operator.
	Fn agg.Fn

	// Param is the finalize-time parameter for parameterized aggregates
	// (φ for PERCENTILE, k for TOPK; zero selects the function default).
	// It never affects operator state — only what finalization answers —
	// so two plans differing only in Param are state-compatible.
	Param float64

	// Kind describes how the plan was produced (for reports).
	Kind Kind

	// Roots are the operators that read the raw input stream.
	Roots []*Operator

	ops []*Operator
}

// Kind labels a plan's provenance.
type Kind int

// The three plan shapes compared throughout the paper's evaluation.
const (
	Original  Kind = iota // every window evaluated independently
	Rewritten             // min-cost WCG without factor windows
	Factored              // min-cost WCG with factor windows
)

func (k Kind) String() string {
	switch k {
	case Original:
		return "original"
	case Rewritten:
		return "rewritten"
	default:
		return "factored"
	}
}

// Operators returns all operators in deterministic (range, slide) order.
func (p *Plan) Operators() []*Operator { return sortedOps(p.ops) }

// before orders windows by range, then slide.
func before(a, b window.Window) bool {
	return a.Range < b.Range || (a.Range == b.Range && a.Slide < b.Slide)
}

// Node is one operator in position form. A plan's Nodes describe its
// whole shape, and FromNodes rebuilds the plan from them.
type Node struct {
	W       window.Window
	Exposed bool
	Parent  int // index of the parent among the same Nodes; -1 reads the raw stream
}

// Nodes returns the plan's shape, one Node per operator in Operators
// order.
func (p *Plan) Nodes() []Node {
	ops := p.Operators()
	out := make([]Node, len(ops))
	for i, o := range ops {
		out[i] = Node{W: o.W, Exposed: o.Exposed, Parent: slices.Index(ops, o.Parent)}
	}
	return out
}

// FromNodes rebuilds and validates the plan nodes describe. They may
// come off a wire, so every window must validate, the windows must be
// in Operators order without repeats (the rebuilt plan's Nodes are
// these), and every parent index must be in range.
func FromNodes(fn agg.Fn, nodes []Node) (*Plan, error) {
	p := &Plan{Fn: fn}
	for _, n := range nodes {
		p.ops = append(p.ops, &Operator{W: n.W, Exposed: n.Exposed})
	}
	for i, n := range nodes {
		op := p.ops[i]
		if err := n.W.Validate(); err != nil {
			return nil, err
		}
		switch {
		case n.Parent < -1 || n.Parent >= len(nodes) || (i > 0 && !before(nodes[i-1].W, n.W)):
			return nil, fmt.Errorf("plan: malformed operator %d (%v, parent %d)", i, n.W, n.Parent)
		case n.Parent < 0:
			p.Roots = append(p.Roots, op)
		default:
			op.Parent = p.ops[n.Parent]
			op.Parent.Children = append(op.Parent.Children, op)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Exposed returns the exposed (user-visible) windows of the plan.
func (p *Plan) Exposed() []window.Window {
	var out []window.Window
	for _, o := range p.Operators() {
		if o.Exposed {
			out = append(out, o.W)
		}
	}
	return out
}

// NewOriginal builds the original (unshared) plan: one independent
// operator per window, all reading the raw stream — the left-hand plan of
// Figure 2(a).
func NewOriginal(set *window.Set, fn agg.Fn) (*Plan, error) {
	if set == nil || set.Len() == 0 {
		return nil, fmt.Errorf("plan: empty window set")
	}
	p := &Plan{Fn: fn, Kind: Original}
	for _, w := range set.Sorted() {
		op := &Operator{W: w, Exposed: true}
		p.ops = append(p.ops, op)
		p.Roots = append(p.Roots, op)
	}
	return p, nil
}

// FromGraph rewrites the min-cost WCG into a plan, following Appendix B:
// nodes without a (non-root) parent read the raw stream via the top-level
// MultiCast; every node with children gets its own MultiCast feeding both
// the Union (if exposed) and its dependent windows. kind should be
// Rewritten or Factored according to how the graph was produced.
func FromGraph(g *wcg.Graph, fn agg.Fn, kind Kind) (*Plan, error) {
	if g == nil {
		return nil, fmt.Errorf("plan: nil graph")
	}
	p := &Plan{Fn: fn, Kind: kind}
	byWindow := make(map[window.Window]*Operator)
	nodes := g.Nodes()
	for _, n := range nodes {
		if n.Root {
			continue
		}
		op := &Operator{W: n.W, Exposed: !n.Factor}
		byWindow[n.W] = op
		p.ops = append(p.ops, op)
	}
	for _, n := range nodes {
		if n.Root {
			continue
		}
		op := byWindow[n.W]
		if n.Parent == nil || n.Parent.Root {
			p.Roots = append(p.Roots, op)
			continue
		}
		parent := byWindow[n.Parent.W]
		if parent == nil {
			return nil, fmt.Errorf("plan: parent %v of %v missing from graph", n.Parent.W, n.W)
		}
		op.Parent = parent
		parent.Children = append(parent.Children, op)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks the plan's structural invariants: acyclic parent
// chains, consistent child links, sharing edges that satisfy the coverage
// (or partitioning) requirement of the aggregate function, no sharing at
// all for holistic functions, and at least one exposed operator.
func (p *Plan) Validate() error {
	if len(p.ops) == 0 {
		return fmt.Errorf("plan: no operators")
	}
	sem := agg.SemanticsOf(p.Fn)
	exposed := 0
	for _, o := range p.ops {
		if o.Exposed {
			exposed++
		}
		seen := map[*Operator]bool{o: true}
		for q := o.Parent; q != nil; q = q.Parent {
			if seen[q] {
				return fmt.Errorf("plan: cycle through %v", o.Name())
			}
			seen[q] = true
		}
		if o.Parent != nil {
			switch sem {
			case agg.CoveredBy:
				if !window.Covers(o.W, o.Parent.W) {
					return fmt.Errorf("plan: %v not covered by parent %v", o.Name(), o.Parent.Name())
				}
			case agg.PartitionedBy:
				if !window.Partitions(o.W, o.Parent.W) {
					return fmt.Errorf("plan: %v not partitioned by parent %v", o.Name(), o.Parent.Name())
				}
			default:
				return fmt.Errorf("plan: holistic %v cannot share (%v <- %v)", p.Fn, o.Name(), o.Parent.Name())
			}
		}
		for _, c := range o.Children {
			if c.Parent != o {
				return fmt.Errorf("plan: child link mismatch at %v", o.Name())
			}
		}
		if !o.Exposed && len(o.Children) == 0 {
			return fmt.Errorf("plan: factor operator %v has no consumers", o.Name())
		}
	}
	if exposed == 0 {
		return fmt.Errorf("plan: no exposed operators")
	}
	return nil
}

// String renders the plan as an indented forest.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan, %v:\n", p.Kind, p.Fn)
	var walk func(o *Operator, depth int)
	walk = func(o *Operator, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth+1), o.Name())
		for _, c := range sortedOps(o.Children) {
			walk(c, depth+1)
		}
	}
	for _, r := range sortedOps(p.Roots) {
		walk(r, 0)
	}
	return b.String()
}

func sortedOps(ops []*Operator) []*Operator {
	out := append([]*Operator(nil), ops...)
	sort.SliceStable(out, func(i, j int) bool { return before(out[i].W, out[j].W) })
	return out
}

// Trill renders the plan as a Trill-style expression in the shape of
// Figure 2: nested Multicast/Tumbling|Hopping/GroupAggregate/Union calls.
// The rendering is for human inspection; it is not parsed back.
func (p *Plan) Trill() string {
	var b strings.Builder
	seq := 0
	roots := sortedOps(p.Roots)
	b.WriteString("Input")
	if len(roots) > 1 {
		b.WriteString(".Multicast(s => s\n")
		for i, r := range roots {
			if i > 0 {
				b.WriteString("  .Union(s\n")
			}
			p.renderTrill(&b, r, 2, &seq)
			if i > 0 {
				b.WriteString("  )\n")
			}
		}
		b.WriteString(")")
	} else {
		b.WriteString("\n")
		p.renderTrill(&b, roots[0], 1, &seq)
	}
	return strings.TrimRight(b.String(), "\n")
}

func (p *Plan) renderTrill(b *strings.Builder, o *Operator, depth int, seq *int) {
	ind := strings.Repeat("  ", depth)
	win := fmt.Sprintf("Tumbling(%d)", o.W.Range)
	if o.W.IsHopping() {
		win = fmt.Sprintf("Hopping(%d, %d)", o.W.Range, o.W.Slide)
	}
	label := fmt.Sprintf("'%s'", o.Name())
	fmt.Fprintf(b, "%s.%s.GroupAggregate(%s, w => w.%s(e => e.V))\n",
		ind, win, label, trillAgg(p.Fn))
	if len(o.Children) == 0 {
		return
	}
	*seq++
	inner := fmt.Sprintf("s%d", *seq)
	fmt.Fprintf(b, "%s.Multicast(%s =>\n", ind, inner)
	kids := sortedOps(o.Children)
	for i, c := range kids {
		if i > 0 || o.Exposed {
			fmt.Fprintf(b, "%s  .Union(%s\n", ind, inner)
			p.renderTrill(b, c, depth+2, seq)
			fmt.Fprintf(b, "%s  )\n", ind)
		} else {
			fmt.Fprintf(b, "%s  %s\n", ind, inner)
			p.renderTrill(b, c, depth+2, seq)
		}
	}
	fmt.Fprintf(b, "%s)\n", ind)
}

func trillAgg(f agg.Fn) string {
	switch f {
	case agg.Min:
		return "Min"
	case agg.Max:
		return "Max"
	case agg.Sum:
		return "Sum"
	case agg.Count:
		return "Count"
	case agg.Avg:
		return "Average"
	case agg.StdDev:
		return "StandardDeviation"
	case agg.Percentile:
		return "Percentile"
	case agg.Distinct:
		return "CountDistinct"
	case agg.TopK:
		return "TopK"
	default:
		return "Median"
	}
}

// Depth returns the longest parent chain in the plan (1 for a flat plan).
func (p *Plan) Depth() int {
	max := 0
	for _, o := range p.ops {
		d := 1
		for q := o.Parent; q != nil; q = q.Parent {
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}

// CountFactors returns the number of unexposed (factor) operators.
func (p *Plan) CountFactors() int {
	n := 0
	for _, o := range p.ops {
		if !o.Exposed {
			n++
		}
	}
	return n
}
