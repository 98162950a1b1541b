// Package agg implements the aggregate functions the paper optimizes and
// the Gray et al. taxonomy it relies on (Section III-A): distributive,
// algebraic and holistic functions; which functions may be computed from
// sub-aggregates ("partitioned by" semantics, Theorem 5) and which remain
// distributive even over overlapping partitions ("covered by" semantics,
// Theorem 6: MIN and MAX).
package agg

import (
	"fmt"
	"math"
)

// Fn identifies an aggregate function.
type Fn int

// The aggregate functions supported by the library. MEDIAN is holistic and
// included to exercise the paper's fallback path (no sharing). PERCENTILE,
// DISTINCT (COUNT(DISTINCT v)) and TOPK are holistic too, but sketch-backed:
// their per-(instance, key) state is a mergeable sketch (internal/sketch),
// which makes them behave algebraically and share under "partitioned by"
// semantics with bounded memory — see SketchBacked.
const (
	Min Fn = iota
	Max
	Sum
	Count
	Avg
	StdDev
	Median
	Percentile
	Distinct
	TopK
	numFns
)

var fnNames = [...]string{"MIN", "MAX", "SUM", "COUNT", "AVG", "STDEV", "MEDIAN",
	"PERCENTILE", "DISTINCT", "TOPK"}

// String returns the SQL-ish name of the function (e.g. "MIN").
func (f Fn) String() string {
	if f < 0 || int(f) >= len(fnNames) {
		return fmt.Sprintf("Fn(%d)", int(f))
	}
	return fnNames[f]
}

// Valid reports whether f is a known aggregate function.
func (f Fn) Valid() bool { return f >= 0 && f < numFns }

// ParseFn parses a (case-insensitive) aggregate function name.
func ParseFn(name string) (Fn, error) {
	for i, n := range fnNames {
		if equalFold(name, n) || (n == "STDEV" && equalFold(name, "STDDEV")) {
			return Fn(i), nil
		}
	}
	return 0, fmt.Errorf("agg: unknown aggregate function %q", name)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 'a' - 'A'
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Class is the Gray et al. classification of an aggregate function.
type Class int

// The three classes of Section III-A.
const (
	Distributive Class = iota
	Algebraic
	Holistic
)

func (c Class) String() string {
	switch c {
	case Distributive:
		return "distributive"
	case Algebraic:
		return "algebraic"
	default:
		return "holistic"
	}
}

// ClassOf returns the taxonomy class of f.
func ClassOf(f Fn) Class {
	switch f {
	case Min, Max, Sum, Count:
		return Distributive
	case Avg, StdDev:
		return Algebraic
	default:
		return Holistic
	}
}

// Semantics selects which coverage relation the optimizer may exploit for
// an aggregate function (Section III, footnote 2).
type Semantics int

// Auto (the zero value) lets the optimizer pick the semantics from the
// aggregate function via SemanticsOf. CoveredBy permits sharing across
// overlapping sub-aggregates (MIN/MAX, Theorem 6). PartitionedBy requires
// disjoint sub-aggregates (SUM, COUNT, AVG, STDEV; Theorem 5). NoSharing
// is the holistic fallback: each window is evaluated independently from
// raw events.
const (
	Auto Semantics = iota
	NoSharing
	PartitionedBy
	CoveredBy
)

func (s Semantics) String() string {
	switch s {
	case CoveredBy:
		return "covered-by"
	case PartitionedBy:
		return "partitioned-by"
	case NoSharing:
		return "no-sharing"
	default:
		return "auto"
	}
}

// SemanticsOf returns the sharing semantics the optimizer uses for f:
// "covered by" for MIN and MAX, "partitioned by" for the remaining
// distributive/algebraic functions and for the sketch-backed holistic
// ones (whose mergeable state assumes exactly the disjointness
// partitioning guarantees), and NoSharing for exact holistic MEDIAN.
func SemanticsOf(f Fn) Semantics {
	switch f {
	case Min, Max:
		return CoveredBy
	case Sum, Count, Avg, StdDev, Percentile, Distinct, TopK:
		return PartitionedBy
	default:
		return NoSharing
	}
}

// OverlapSafe reports whether f stays distributive over overlapping
// partitions (Theorem 6), i.e. whether "covered by" sharing is sound.
func OverlapSafe(f Fn) bool { return f == Min || f == Max }

// Shareable reports whether f can be computed *exactly* from
// constant-size sub-aggregates — the flat Cell state every executor's
// pane/cell path understands.
func Shareable(f Fn) bool { return ClassOf(f) != Holistic }

// SketchBacked reports whether f's partial-aggregate state is a
// mergeable sketch (internal/sketch) rather than a flat Cell: PERCENTILE
// (KLL-style quantile), DISTINCT (HyperLogLog) and TOPK (Misra-Gries).
// Sketch-backed functions share like algebraic ones under "partitioned
// by" semantics but answer approximately, within the sketch's error
// bound, and never appear in Cell kernels.
func SketchBacked(f Fn) bool { return f == Percentile || f == Distinct || f == TopK }

// Mergeable reports whether f's sub-aggregates merge at all — exactly
// (Shareable) or approximately via sketches (SketchBacked). Exact MEDIAN
// is the only supported function that is neither.
func Mergeable(f Fn) bool { return Shareable(f) || SketchBacked(f) }

// DefaultParam returns the finalize-time parameter f defaults to when
// none is given: φ = 0.5 for PERCENTILE (the median), rank 1 for TOPK
// (the mode), 0 for the parameterless functions.
func DefaultParam(f Fn) float64 {
	switch f {
	case Percentile:
		return 0.5
	case TopK:
		return 1
	default:
		return 0
	}
}

// ValidateParam checks a finalize-time parameter for f: PERCENTILE needs
// φ in (0, 1], TOPK an integer rank within the summary's capacity, and
// every other function takes none (0). Sketch state is parameter-
// independent, so this only constrains what finalization may ask for.
func ValidateParam(f Fn, p float64) error {
	switch f {
	case Percentile:
		if math.IsNaN(p) || p <= 0 || p > 1 {
			return fmt.Errorf("agg: PERCENTILE parameter %v outside (0, 1]", p)
		}
	case TopK:
		if math.IsNaN(p) || p != math.Trunc(p) || p < 1 || p > sketchTopKCap {
			return fmt.Errorf("agg: TOPK rank %v must be an integer in [1, %d]", p, int(sketchTopKCap))
		}
	default:
		if p != 0 {
			return fmt.Errorf("agg: %v takes no parameter", f)
		}
	}
	return nil
}

// Functions returns all supported aggregate functions.
func Functions() []Fn {
	out := make([]Fn, numFns)
	for i := range out {
		out[i] = Fn(i)
	}
	return out
}

// ShareableFns returns the functions eligible for exact shared
// computation (flat Cell state; see Shareable).
func ShareableFns() []Fn {
	var out []Fn
	for _, f := range Functions() {
		if Shareable(f) {
			out = append(out, f)
		}
	}
	return out
}

// SketchFns returns the sketch-backed functions (see SketchBacked).
func SketchFns() []Fn {
	var out []Fn
	for _, f := range Functions() {
		if SketchBacked(f) {
			out = append(out, f)
		}
	}
	return out
}
