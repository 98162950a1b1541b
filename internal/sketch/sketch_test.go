package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func exactQuantile(vals []float64, phi float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(phi*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// rankError returns |rank(got) - phi·n| / n against the exact data.
func rankError(vals []float64, got float64, phi float64) float64 {
	n := float64(len(vals))
	rank := 0.0
	for _, v := range vals {
		if v <= got {
			rank++
		}
	}
	return math.Abs(rank-phi*n) / n
}

func TestEmpty(t *testing.T) {
	q := New(64)
	if !q.Empty() || q.Count() != 0 {
		t.Fatal("new sketch should be empty")
	}
	if !math.IsNaN(q.Query(0.5)) || !math.IsNaN(q.Min()) || !math.IsNaN(q.Max()) {
		t.Error("empty sketch queries should be NaN")
	}
}

func TestSmallExact(t *testing.T) {
	// Fewer than k items: no compaction, all quantiles exact.
	q := New(128)
	vals := []float64{5, 1, 9, 3, 7}
	for _, v := range vals {
		q.Add(v)
	}
	if err := q.Invariant(); err != nil {
		t.Fatal(err)
	}
	if got := q.Query(0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if q.Min() != 1 || q.Max() != 9 {
		t.Errorf("min/max = %v/%v", q.Min(), q.Max())
	}
	if got := q.Query(0); got != 1 {
		t.Errorf("phi=0 → %v, want min", got)
	}
	if got := q.Query(1); got != 9 {
		t.Errorf("phi=1 → %v, want max", got)
	}
}

func TestRankErrorUniform(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	q := New(200)
	n := 100_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.Float64() * 1000
		q.Add(vals[i])
	}
	if err := q.Invariant(); err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := q.Query(phi)
		if e := rankError(vals, got, phi); e > 0.02 {
			t.Errorf("phi=%v: rank error %.4f > 2%%", phi, e)
		}
	}
}

func TestRankErrorSkewed(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	q := New(200)
	n := 50_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Exp(r.NormFloat64() * 3) // heavy-tailed lognormal
		q.Add(vals[i])
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		got := q.Query(phi)
		if e := rankError(vals, got, phi); e > 0.02 {
			t.Errorf("phi=%v: rank error %.4f > 2%%", phi, e)
		}
	}
}

func TestSortedAndReversedInput(t *testing.T) {
	for name, gen := range map[string]func(i, n int) float64{
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
	} {
		q := New(200)
		n := 30_000
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = gen(i, n)
			q.Add(vals[i])
		}
		got := q.Query(0.5)
		if e := rankError(vals, got, 0.5); e > 0.02 {
			t.Errorf("%s: median rank error %.4f > 2%%", name, e)
		}
	}
}

func TestMergePreservesCountAndError(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	parts := make([]*Quantile, 8)
	var all []float64
	for i := range parts {
		parts[i] = New(200)
		for j := 0; j < 5_000; j++ {
			v := r.NormFloat64() * 100
			parts[i].Add(v)
			all = append(all, v)
		}
	}
	merged := New(200)
	for _, p := range parts {
		merged.Merge(p)
		if err := merged.Invariant(); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != int64(len(all)) {
		t.Fatalf("merged count %d, want %d", merged.Count(), len(all))
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		got := merged.Query(phi)
		if e := rankError(all, got, phi); e > 0.03 {
			t.Errorf("phi=%v after merge: rank error %.4f > 3%%", phi, e)
		}
	}
	if got, lo, hi := merged.Min(), mins(all), maxs(all); got != lo || merged.Max() != hi {
		t.Errorf("min/max %v/%v, want %v/%v", got, merged.Max(), lo, hi)
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	q := New(64)
	q.Add(1)
	q.Merge(nil)
	q.Merge(New(64))
	if q.Count() != 1 || q.Query(0.5) != 1 {
		t.Error("merging nil/empty must be a no-op")
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	a := New(64)
	b := New(64)
	for i := 0; i < 100; i++ {
		b.Add(float64(i))
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("count %d", a.Count())
	}
	if e := math.Abs(a.Query(0.5) - 50); e > 5 {
		t.Errorf("median off by %v", e)
	}
}

func TestSpaceBound(t *testing.T) {
	q := New(200)
	n := 1_000_000
	for i := 0; i < n; i++ {
		q.Add(float64(i % 9973))
	}
	// O(k log(n/k)): generous cap at 16·k.
	if got := q.Retained(); got > 16*200 {
		t.Errorf("retained %d values for n=%d; space bound violated", got, n)
	}
}

func TestDeterministic(t *testing.T) {
	build := func() *Quantile {
		q := New(100)
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 20_000; i++ {
			q.Add(r.Float64())
		}
		return q
	}
	a, b := build(), build()
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		if a.Query(phi) != b.Query(phi) {
			t.Fatalf("phi=%v: nondeterministic result", phi)
		}
	}
}

func TestReset(t *testing.T) {
	q := New(64)
	for i := 0; i < 10_000; i++ {
		q.Add(float64(i))
	}
	q.Reset()
	if !q.Empty() || q.Retained() != 0 {
		t.Fatal("reset did not clear the sketch")
	}
	q.Add(42)
	if q.Query(0.5) != 42 {
		t.Fatal("sketch unusable after reset")
	}
}

// TestResetIsNew: a sketch that compacted, was Reset and was then fed
// enough values to compact again marshals to the same bytes as a fresh
// sketch fed those values — a recycled sketch carries nothing of its
// earlier tenants (generator state, level count) into its answers or its
// checkpoint bytes.
func TestResetIsNew(t *testing.T) {
	const k = 64
	r := rand.New(rand.NewSource(21))
	for _, before := range []int{3 * k, 10_000} {
		used := New(k)
		for i := 0; i < before; i++ {
			used.Add(r.Float64())
		}
		used.Reset()
		fresh := New(k)
		for i := 0; i < 5*k+3; i++ {
			v := r.Float64()
			used.Add(v)
			fresh.Add(v)
		}
		got, err := used.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after %d values and a Reset: marshals to %d bytes unlike New(%d)'s %d", before, len(got), k, len(want))
		}
	}
}

func TestTinyK(t *testing.T) {
	q := New(1) // clamped to 8
	if q.K() != 8 {
		t.Fatalf("k = %d, want clamp to 8", q.K())
	}
	for i := 0; i < 1000; i++ {
		q.Add(float64(i))
	}
	if err := q.Invariant(); err != nil {
		t.Fatal(err)
	}
}

// Property: weight conservation holds under arbitrary add/merge
// interleavings.
func TestQuickWeightConservation(t *testing.T) {
	f := func(seed int64, nsA, nsB uint16) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := New(32), New(32)
		for i := 0; i < int(nsA); i++ {
			a.Add(r.Float64())
		}
		for i := 0; i < int(nsB); i++ {
			b.Add(r.Float64())
		}
		a.Merge(b)
		return a.Invariant() == nil && a.Count() == int64(nsA)+int64(nsB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Query is monotone in phi.
func TestQuickMonotoneQuantiles(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		q := New(64)
		for i := 0; i < int(n)+1; i++ {
			q.Add(r.NormFloat64())
		}
		prev := math.Inf(-1)
		for phi := 0.0; phi <= 1.0; phi += 0.05 {
			v := q.Query(phi)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the returned quantile is always a value that was inserted
// (the sketch retains originals, never synthesizes).
func TestQuickQuantileIsInputValue(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		q := New(16)
		seen := map[float64]bool{}
		for i := 0; i < int(n)+1; i++ {
			v := math.Floor(r.Float64() * 100)
			seen[v] = true
			q.Add(v)
		}
		for _, phi := range []float64{0, 0.3, 0.5, 0.8, 1} {
			if !seen[q.Query(phi)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	q := New(200)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Add(r.Float64())
	}
}

func BenchmarkMerge(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	parts := make([]*Quantile, 16)
	for i := range parts {
		parts[i] = New(200)
		for j := 0; j < 10_000; j++ {
			parts[i].Add(r.Float64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(200)
		for _, p := range parts {
			m.Merge(p)
		}
	}
}

func mins(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}

func maxs(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
