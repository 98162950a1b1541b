package agg

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// ref is the test oracle for one (window instance, key) partial
// aggregate: the exported Cell kernels for every exactly shareable
// function, plus a raw-value slice for MEDIAN.
type ref struct {
	c    Cell
	vals []float64
}

func fold(f Fn, vals []float64) *ref {
	r := &ref{}
	for _, v := range vals {
		r.add(f, v)
	}
	return r
}

func (r *ref) add(f Fn, v float64) {
	if f == Median {
		r.vals = append(r.vals, v)
		return
	}
	CellAdd(f, &r.c, v)
}

// merge folds the disjoint sub-aggregate o into r; MEDIAN carries raw
// values, the way the slicing executor's holistic fallback does.
func (r *ref) merge(f Fn, o *ref) {
	if f == Median {
		r.vals = append(r.vals, o.vals...)
		return
	}
	CellMerge(f, &r.c, &o.c)
}

func (r *ref) cnt(f Fn) int64 {
	if f == Median {
		return int64(len(r.vals))
	}
	return r.c.Cnt
}

func (r *ref) final(f Fn) float64 {
	if f != Median {
		return CellFinal(f, &r.c)
	}
	if len(r.vals) == 0 {
		return math.NaN()
	}
	vals := slices.Sorted(slices.Values(r.vals))
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// storeFinal folds vals into one Store row and finalizes it.
func storeFinal(f Fn, vals []float64) float64 {
	s := NewStore(f)
	base, _ := s.Alloc(1)
	for _, v := range vals {
		s.AddAt(base, v)
	}
	return s.FinalizeAt(base)
}

func TestTaxonomy(t *testing.T) {
	cases := []struct {
		f     Fn
		class Class
		sem   Semantics
	}{
		{Min, Distributive, CoveredBy},
		{Max, Distributive, CoveredBy},
		{Sum, Distributive, PartitionedBy},
		{Count, Distributive, PartitionedBy},
		{Avg, Algebraic, PartitionedBy},
		{StdDev, Algebraic, PartitionedBy},
		{Median, Holistic, NoSharing},
		{Percentile, Holistic, PartitionedBy},
		{Distinct, Holistic, PartitionedBy},
		{TopK, Holistic, PartitionedBy},
	}
	for _, c := range cases {
		if ClassOf(c.f) != c.class {
			t.Errorf("ClassOf(%v) = %v, want %v", c.f, ClassOf(c.f), c.class)
		}
		if SemanticsOf(c.f) != c.sem {
			t.Errorf("SemanticsOf(%v) = %v, want %v", c.f, SemanticsOf(c.f), c.sem)
		}
		if OverlapSafe(c.f) != (c.sem == CoveredBy) {
			t.Errorf("OverlapSafe(%v) inconsistent with semantics", c.f)
		}
		if Shareable(c.f) != (c.class != Holistic) {
			t.Errorf("Shareable(%v) inconsistent with class", c.f)
		}
		if SketchBacked(c.f) && c.sem != PartitionedBy {
			t.Errorf("SketchBacked(%v) must imply partitioned-by semantics", c.f)
		}
		if Mergeable(c.f) != (Shareable(c.f) || SketchBacked(c.f)) {
			t.Errorf("Mergeable(%v) inconsistent", c.f)
		}
	}
}

func TestParseFn(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Fn
	}{
		{"min", Min}, {"MIN", Min}, {"Max", Max}, {"sum", Sum},
		{"COUNT", Count}, {"avg", Avg}, {"stdev", StdDev},
		{"STDDEV", StdDev}, {"median", Median},
		{"percentile", Percentile}, {"Distinct", Distinct}, {"topk", TopK},
	} {
		got, err := ParseFn(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFn(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseFn("mode"); err == nil {
		t.Fatal("unknown function must fail")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, f := range Functions() {
		got, err := ParseFn(f.String())
		if err != nil || got != f {
			t.Errorf("round trip %v failed: %v, %v", f, got, err)
		}
	}
	if Fn(42).String() == "" || Fn(42).Valid() {
		t.Error("out-of-range Fn handling wrong")
	}
}

func TestFinalBasics(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	checks := map[Fn]float64{
		Min:    1,
		Max:    9,
		Sum:    31,
		Count:  8,
		Avg:    31.0 / 8,
		Median: 3.5,
	}
	for f, want := range checks {
		if got := storeFinal(f, vals); got != want {
			t.Errorf("%v = %v, want %v", f, got, want)
		}
		if got := fold(f, vals).final(f); got != want {
			t.Errorf("oracle %v = %v, want %v", f, got, want)
		}
	}
	// STDEV: population stddev of the values.
	mean := 31.0 / 8
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	want := math.Sqrt(ss / 8)
	if got := storeFinal(StdDev, vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("STDEV = %v, want %v", got, want)
	}
}

func TestMedianOddAndEven(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{{[]float64{5, 1, 3}, 3}, {[]float64{4, 2}, 3}} {
		if got := storeFinal(Median, c.vals); got != c.want {
			t.Errorf("median of %v = %v, want %v", c.vals, got, c.want)
		}
		if got := fold(Median, c.vals).final(Median); got != c.want {
			t.Errorf("oracle median of %v = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestEmptyState(t *testing.T) {
	var c Cell
	if !c.Empty() {
		t.Fatal("zero cell must be empty")
	}
	if got := CellFinal(Count, &c); got != 0 {
		t.Errorf("COUNT of empty = %v", got)
	}
	for _, f := range []Fn{Min, Max, Sum, Avg, StdDev} {
		if got := CellFinal(f, &c); !math.IsNaN(got) {
			t.Errorf("%v of empty = %v, want NaN", f, got)
		}
	}
	for _, f := range exactFns() {
		s := NewStore(f)
		base, _ := s.Alloc(1)
		if got, want := s.FinalizeAt(base), CellFinal(f, &c); !almostEqual(got, want) {
			t.Errorf("%v of an empty store row = %v, want %v", f, got, want)
		}
	}
}

func TestReset(t *testing.T) {
	s := NewStore(Median)
	base, cap := s.Alloc(1)
	for _, v := range []float64{1, 2, 3} {
		s.AddAt(base, v)
	}
	s.Clear(base, cap)
	if s.LiveAt(base) || s.cnt[base] != 0 || len(s.RawAt(base)) != 0 {
		t.Fatal("Clear must reset the row")
	}
	c := fold(Sum, []float64{1, 2, 3}).c
	c.Reset()
	if c != (Cell{}) {
		t.Fatal("Reset must clear the cell")
	}
}

func TestMergeEqualsDirectOnPartitions(t *testing.T) {
	// Theorem 5: for distributive/algebraic f, folding disjoint chunks
	// and merging their states equals folding everything directly.
	cfg := &quick.Config{MaxCount: 500}
	for _, f := range []Fn{Min, Max, Sum, Count, Avg, StdDev} {
		f := f
		prop := func(raw []float64, cut uint8) bool {
			if len(raw) < 2 {
				return true
			}
			for i, v := range raw {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					raw[i] = float64(i)
				}
				// Keep magnitudes sane so float association error is negligible.
				raw[i] = math.Mod(raw[i], 1e6)
			}
			k := int(cut)%(len(raw)-1) + 1
			direct := fold(f, raw).c
			var merged Cell
			lo, hi := fold(f, raw[:k]).c, fold(f, raw[k:]).c
			CellMerge(f, &merged, &lo)
			CellMerge(f, &merged, &hi)
			want, got := CellFinal(f, &direct), CellFinal(f, &merged)
			if math.IsNaN(want) && math.IsNaN(got) {
				return true
			}
			return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%v: %v", f, err)
		}
	}
}

func TestMinMaxOverlapSafe(t *testing.T) {
	// Theorem 6: MIN/MAX stay correct when the sub-aggregates overlap.
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 1000; trial++ {
		n := r.Intn(20) + 1
		raw := make([]float64, n)
		for i := range raw {
			raw[i] = r.NormFloat64() * 100
		}
		for _, f := range []Fn{Min, Max} {
			direct := fold(f, raw).final(f)
			var merged Cell
			// Random overlapping chunks that together cover all of raw.
			covered := make([]bool, n)
			for c := 0; c < 4; c++ {
				lo := r.Intn(n)
				hi := lo + r.Intn(n-lo) + 1
				for i := lo; i < hi; i++ {
					covered[i] = true
				}
				sub := fold(f, raw[lo:hi]).c
				CellMerge(f, &merged, &sub)
			}
			for i, ok := range covered {
				if !ok {
					sub := fold(f, raw[i:i+1]).c
					CellMerge(f, &merged, &sub)
				}
			}
			if got := CellFinal(f, &merged); got != direct {
				t.Fatalf("%v over overlapping chunks = %v, want %v", f, got, direct)
			}
		}
	}
}

func TestMergeHolisticPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CellMerge(Median) must panic")
		}
	}()
	CellMerge(Median, &Cell{}, &Cell{Cnt: 1})
}

func TestMergeEmptySubIsNoop(t *testing.T) {
	c := fold(Sum, []float64{1, 2}).c
	CellMerge(Sum, &c, &Cell{})
	if CellFinal(Sum, &c) != 3 || c.Cnt != 2 {
		t.Fatal("merging an empty sub-state must be a no-op")
	}
}

func TestCountIgnoresValues(t *testing.T) {
	vals := []float64{math.Inf(1), -5, 0}
	if fold(Count, vals).final(Count) != 3 || storeFinal(Count, vals) != 3 {
		t.Fatal("COUNT must count events, not values")
	}
}

func TestShareableFns(t *testing.T) {
	fs := ShareableFns()
	if len(fs) != 6 {
		t.Fatalf("ShareableFns = %v", fs)
	}
	if !reflect.DeepEqual(fs, []Fn{Min, Max, Sum, Count, Avg, StdDev}) {
		t.Fatalf("ShareableFns = %v", fs)
	}
}

func TestSketchFns(t *testing.T) {
	if fs := SketchFns(); !reflect.DeepEqual(fs, []Fn{Percentile, Distinct, TopK}) {
		t.Fatalf("SketchFns = %v", fs)
	}
	for _, f := range SketchFns() {
		if Shareable(f) {
			t.Fatalf("%v must not be Shareable (no exact Cell state)", f)
		}
		if !Mergeable(f) {
			t.Fatalf("%v must be Mergeable", f)
		}
	}
	if Mergeable(Median) {
		t.Fatal("exact MEDIAN must not be Mergeable")
	}
}

func TestParams(t *testing.T) {
	if got := DefaultParam(Percentile); got != 0.5 {
		t.Fatalf("DefaultParam(PERCENTILE) = %v", got)
	}
	if got := DefaultParam(TopK); got != 1 {
		t.Fatalf("DefaultParam(TOPK) = %v", got)
	}
	if got := DefaultParam(Sum); got != 0 {
		t.Fatalf("DefaultParam(SUM) = %v", got)
	}
	ok := []struct {
		f Fn
		p float64
	}{
		{Percentile, 0.5}, {Percentile, 0.001}, {Percentile, 1},
		{TopK, 1}, {TopK, 10}, {TopK, sketchTopKCap},
		{Sum, 0}, {Median, 0}, {Distinct, 0},
	}
	for _, c := range ok {
		if err := ValidateParam(c.f, c.p); err != nil {
			t.Errorf("ValidateParam(%v, %v) = %v, want nil", c.f, c.p, err)
		}
	}
	bad := []struct {
		f Fn
		p float64
	}{
		{Percentile, 0}, {Percentile, -0.1}, {Percentile, 1.5}, {Percentile, math.NaN()},
		{TopK, 0}, {TopK, 2.5}, {TopK, -1}, {TopK, sketchTopKCap + 1}, {TopK, math.NaN()},
		{Sum, 1}, {Distinct, 0.5}, {Median, 2},
	}
	for _, c := range bad {
		if err := ValidateParam(c.f, c.p); err == nil {
			t.Errorf("ValidateParam(%v, %v) accepted", c.f, c.p)
		}
	}
}

func TestStdDevNeverNegativeSqrt(t *testing.T) {
	// Constant input: variance should be exactly 0 even with float noise.
	vals := []float64{1e8, 1e8, 1e8, 1e8}
	if got := fold(StdDev, vals).final(StdDev); got != 0 {
		t.Fatalf("STDEV of constants = %v", got)
	}
	if got := storeFinal(StdDev, vals); got != 0 {
		t.Fatalf("store STDEV of constants = %v", got)
	}
}
