// Package flinkgen translates optimized multi-window plans into Apache
// Flink DataStream API code, following the translation the paper performs
// for its Scotty comparison (Section V-F): "we translate our optimized
// query plans into Apache Flink queries expressed by its DataStream API,
// following a similar query rewriting procedure described in
// Section III-C".
//
// The generated program is Java source for a single Flink job. Each plan
// operator becomes one keyed window aggregation; operators whose Parent is
// nil read the job's input stream, operators with a parent read the
// parent's sub-aggregate stream, exposed operators are unioned into the
// job output, and factor-window streams stay internal — exactly the plan
// shape of Figure 2(a). Like the Trill rendering in package plan, the
// output is meant for inspection and for porting experiments onto a real
// Flink cluster; it is not compiled here.
package flinkgen

import (
	"fmt"
	"sort"
	"strings"

	"factorwindows/internal/agg"
	"factorwindows/internal/plan"
	"factorwindows/internal/window"
)

// Options controls code generation.
type Options struct {
	// ClassName is the generated job class (default "FactorWindowsJob").
	ClassName string
	// TimeUnit is the Flink Time unit one tick maps to: "milliseconds",
	// "seconds" (default), "minutes" or "hours".
	TimeUnit string
	// Parallelism, when > 0, emits env.setParallelism(Parallelism). The
	// paper's experiments run single-core, i.e. Parallelism = 1.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.ClassName == "" {
		o.ClassName = "FactorWindowsJob"
	}
	if o.TimeUnit == "" {
		o.TimeUnit = "seconds"
	}
	return o
}

var validUnits = map[string]string{
	"milliseconds": "milliseconds",
	"seconds":      "seconds",
	"minutes":      "minutes",
	"hours":        "hours",
}

// Generate renders the plan as a complete Flink DataStream job.
func Generate(p *plan.Plan, opts Options) (string, error) {
	if p == nil {
		return "", fmt.Errorf("flinkgen: nil plan")
	}
	if err := p.Validate(); err != nil {
		return "", fmt.Errorf("flinkgen: %w", err)
	}
	opts = opts.withDefaults()
	unit, ok := validUnits[opts.TimeUnit]
	if !ok {
		return "", fmt.Errorf("flinkgen: unknown time unit %q", opts.TimeUnit)
	}

	g := &generator{plan: p, unit: unit}
	var b strings.Builder
	g.preamble(&b, opts)
	g.body(&b)
	g.epilogue(&b, opts)
	g.aggregateClasses(&b)
	b.WriteString("}\n")
	return b.String(), nil
}

type generator struct {
	plan *plan.Plan
	unit string
	// names maps operators to their generated stream variable names.
	names map[*plan.Operator]string
}

// varName derives a stable Java identifier for an operator's stream.
func varName(o *plan.Operator) string {
	w := o.W
	suffix := ""
	if !o.Exposed {
		suffix = "Factor"
	}
	if w.IsTumbling() {
		return fmt.Sprintf("tumble%d%s", w.Range, suffix)
	}
	return fmt.Sprintf("hop%dBy%d%s", w.Range, w.Slide, suffix)
}

func (g *generator) preamble(b *strings.Builder, opts Options) {
	fmt.Fprintf(b, "// Generated by factorwindows (plan kind: %s, aggregate: %v).\n", g.plan.Kind, g.plan.Fn)
	b.WriteString("// Mirrors the query rewriting of Section III-C on the Flink DataStream API\n")
	b.WriteString("// (Section V-F of the paper).\n\n")
	b.WriteString("import org.apache.flink.api.common.functions.AggregateFunction;\n")
	b.WriteString("import org.apache.flink.streaming.api.datastream.DataStream;\n")
	b.WriteString("import org.apache.flink.streaming.api.environment.StreamExecutionEnvironment;\n")
	b.WriteString("import org.apache.flink.streaming.api.windowing.assigners.SlidingEventTimeWindows;\n")
	b.WriteString("import org.apache.flink.streaming.api.windowing.assigners.TumblingEventTimeWindows;\n")
	b.WriteString("import org.apache.flink.streaming.api.windowing.time.Time;\n\n")
	fmt.Fprintf(b, "public class %s {\n", opts.ClassName)
	b.WriteString("  public static void main(String[] args) throws Exception {\n")
	b.WriteString("    StreamExecutionEnvironment env = StreamExecutionEnvironment.getExecutionEnvironment();\n")
	if opts.Parallelism > 0 {
		fmt.Fprintf(b, "    env.setParallelism(%d);\n", opts.Parallelism)
	}
	b.WriteString("    DataStream<Event> input = env.addSource(new EventSource())\n")
	b.WriteString("        .assignTimestampsAndWatermarks(new EventWatermarks());\n\n")
}

// body emits one window aggregation per operator, parents before children.
func (g *generator) body(b *strings.Builder) {
	g.names = make(map[*plan.Operator]string)
	var emit func(o *plan.Operator)
	emit = func(o *plan.Operator) {
		name := varName(o)
		g.names[o] = name
		src := "input"
		aggClass := g.leafAggClass()
		if o.Parent != nil {
			src = g.names[o.Parent]
			aggClass = g.mergeAggClass()
		}
		comment := "query window"
		if !o.Exposed {
			comment = "factor window (internal; not part of the job output)"
		}
		fmt.Fprintf(b, "    // %v: %s\n", o.W, comment)
		fmt.Fprintf(b, "    DataStream<Agg> %s = %s\n", name, src)
		b.WriteString("        .keyBy(e -> e.key)\n")
		fmt.Fprintf(b, "        .window(%s)\n", g.assigner(o.W))
		fmt.Fprintf(b, "        .aggregate(new %s());\n\n", aggClass)
		for _, c := range sortedChildren(o) {
			emit(c)
		}
	}
	for _, r := range sortedRoots(g.plan) {
		emit(r)
	}
}

func (g *generator) epilogue(b *strings.Builder, opts Options) {
	var exposed []string
	var walk func(o *plan.Operator)
	walk = func(o *plan.Operator) {
		if o.Exposed {
			exposed = append(exposed, g.names[o])
		}
		for _, c := range sortedChildren(o) {
			walk(c)
		}
	}
	for _, r := range sortedRoots(g.plan) {
		walk(r)
	}
	sort.Strings(exposed)
	b.WriteString("    DataStream<Agg> output = ")
	b.WriteString(exposed[0])
	for _, name := range exposed[1:] {
		b.WriteString("\n        .union(" + name + ")")
	}
	b.WriteString(";\n")
	b.WriteString("    output.addSink(new ResultSink());\n")
	fmt.Fprintf(b, "    env.execute(%q);\n", opts.ClassName)
	b.WriteString("  }\n\n")
}

func (g *generator) assigner(w window.Window) string {
	if w.IsTumbling() {
		return fmt.Sprintf("TumblingEventTimeWindows.of(Time.%s(%d))", g.unit, w.Range)
	}
	return fmt.Sprintf("SlidingEventTimeWindows.of(Time.%s(%d), Time.%s(%d))",
		g.unit, w.Range, g.unit, w.Slide)
}

// leafAggClass names the AggregateFunction folding raw events.
func (g *generator) leafAggClass() string { return fnClass(g.plan.Fn) + "OfEvents" }

// mergeAggClass names the AggregateFunction folding upstream sub-aggregates.
func (g *generator) mergeAggClass() string { return fnClass(g.plan.Fn) + "OfAggs" }

func fnClass(f agg.Fn) string {
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
		return "Avg"
	case agg.StdDev:
		return "StdDev"
	default:
		return "Median"
	}
}

// aggregateClasses emits the two AggregateFunction implementations the job
// needs: one over raw events and — when the plan shares computation — one
// over upstream sub-aggregates. The partial-aggregate record mirrors
// agg.Cell: (count, sum, sumSq, min, max) suffices for every shareable
// function.
func (g *generator) aggregateClasses(b *strings.Builder) {
	if agg.ClassOf(g.plan.Fn) == agg.Holistic {
		g.holisticClasses(b)
		return
	}
	needMerge := false
	for _, o := range g.plan.Operators() {
		if o.Parent != nil {
			needMerge = true
			break
		}
	}
	b.WriteString("  /** Partial aggregate; mirrors the library's agg.Cell. */\n")
	b.WriteString("  public static class Agg {\n")
	b.WriteString("    public long key;\n")
	b.WriteString("    public long cnt;\n")
	b.WriteString("    public double sum, sumSq, min, max;\n")
	b.WriteString("  }\n\n")
	leaf := g.leafAggClass()
	fmt.Fprintf(b, "  /** Folds raw events into a partial aggregate. */\n")
	fmt.Fprintf(b, "  public static class %s implements AggregateFunction<Event, Agg, Agg> {\n", leaf)
	b.WriteString("    public Agg createAccumulator() { return new Agg(); }\n")
	b.WriteString("    public Agg add(Event e, Agg a) {\n")
	b.WriteString("      if (a.cnt == 0) { a.min = e.value; a.max = e.value; a.key = e.key; }\n")
	b.WriteString("      a.min = Math.min(a.min, e.value);\n")
	b.WriteString("      a.max = Math.max(a.max, e.value);\n")
	b.WriteString("      a.sum += e.value;\n")
	b.WriteString("      a.sumSq += e.value * e.value;\n")
	b.WriteString("      a.cnt++;\n")
	b.WriteString("      return a;\n")
	b.WriteString("    }\n")
	b.WriteString("    public Agg getResult(Agg a) { return a; }\n")
	b.WriteString("    public Agg merge(Agg a, Agg b) { return " + g.mergeAggClass() + ".combine(a, b); }\n")
	b.WriteString("  }\n\n")
	if needMerge {
		merge := g.mergeAggClass()
		fmt.Fprintf(b, "  /** Folds upstream sub-aggregates (the sharing edges of the plan). */\n")
		fmt.Fprintf(b, "  public static class %s implements AggregateFunction<Agg, Agg, Agg> {\n", merge)
		b.WriteString("    public Agg createAccumulator() { return new Agg(); }\n")
		b.WriteString("    public Agg add(Agg sub, Agg a) { return combine(a, sub); }\n")
		b.WriteString("    public Agg getResult(Agg a) { return a; }\n")
		b.WriteString("    public Agg merge(Agg a, Agg b) { return combine(a, b); }\n")
		b.WriteString("    static Agg combine(Agg a, Agg b) {\n")
		b.WriteString("      if (b.cnt == 0) return a;\n")
		b.WriteString("      if (a.cnt == 0) { a.min = b.min; a.max = b.max; a.key = b.key; }\n")
		b.WriteString("      a.min = Math.min(a.min, b.min);\n")
		b.WriteString("      a.max = Math.max(a.max, b.max);\n")
		b.WriteString("      a.sum += b.sum;\n")
		b.WriteString("      a.sumSq += b.sumSq;\n")
		b.WriteString("      a.cnt += b.cnt;\n")
		b.WriteString("      return a;\n")
		b.WriteString("    }\n")
		b.WriteString("  }\n")
	}
}

// holisticClasses emits the list-backed accumulator holistic functions
// need. Holistic plans never share (Section III-A), so no merge class over
// sub-aggregates is emitted; Flink's own pane merge still concatenates.
func (g *generator) holisticClasses(b *strings.Builder) {
	b.WriteString("  /** Partial aggregate for holistic functions: all raw values. */\n")
	b.WriteString("  public static class Agg {\n")
	b.WriteString("    public long key;\n")
	b.WriteString("    public java.util.ArrayList<Double> vals = new java.util.ArrayList<>();\n")
	b.WriteString("  }\n\n")
	leaf := g.leafAggClass()
	fmt.Fprintf(b, "  /** Collects raw events; the sink computes the %v. */\n", g.plan.Fn)
	fmt.Fprintf(b, "  public static class %s implements AggregateFunction<Event, Agg, Agg> {\n", leaf)
	b.WriteString("    public Agg createAccumulator() { return new Agg(); }\n")
	b.WriteString("    public Agg add(Event e, Agg a) {\n")
	b.WriteString("      if (a.vals.isEmpty()) a.key = e.key;\n")
	b.WriteString("      a.vals.add(e.value);\n")
	b.WriteString("      return a;\n")
	b.WriteString("    }\n")
	b.WriteString("    public Agg getResult(Agg a) { return a; }\n")
	b.WriteString("    public Agg merge(Agg a, Agg b) { a.vals.addAll(b.vals); return a; }\n")
	b.WriteString("  }\n")
}

func sortedRoots(p *plan.Plan) []*plan.Operator {
	out := append([]*plan.Operator(nil), p.Roots...)
	sortOps(out)
	return out
}

func sortedChildren(o *plan.Operator) []*plan.Operator {
	out := append([]*plan.Operator(nil), o.Children...)
	sortOps(out)
	return out
}

func sortOps(ops []*plan.Operator) {
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].W.Range != ops[j].W.Range {
			return ops[i].W.Range < ops[j].W.Range
		}
		return ops[i].W.Slide < ops[j].W.Slide
	})
}
