package agg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"factorwindows/internal/sketch"
)

func almostEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// exactFns returns every function the ref oracle expresses — all but
// the sketch-backed ones, whose store rows hold sketches (they are
// covered by the sketch kernel tests below).
func exactFns() []Fn {
	var out []Fn
	for _, f := range Functions() {
		if !SketchBacked(f) {
			out = append(out, f)
		}
	}
	return out
}

// TestStoreKernelsMatchBoxed drives random Add/Finalize traffic through a
// Store span and per-row ref oracles in lockstep: the columnar kernels
// must agree with the Cell kernels (and MEDIAN's raw values) for every
// function.
func TestStoreKernelsMatchBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, fn := range exactFns() {
		s := NewStore(fn)
		base, cap := s.Alloc(8)
		boxed := make([]ref, cap)
		for step := 0; step < 2000; step++ {
			row := int32(r.Intn(int(cap)))
			v := float64(r.Intn(200) - 100)
			s.AddAt(base+row, v)
			boxed[row].add(fn, v)
		}
		for row := int32(0); row < cap; row++ {
			if got, want := s.cnt[base+row], boxed[row].cnt(fn); got != want {
				t.Fatalf("%v row %d: cnt %d, want %d", fn, row, got, want)
			}
			if got, want := s.LiveAt(base+row), boxed[row].cnt(fn) > 0; got != want {
				t.Fatalf("%v row %d: live %t, want %t", fn, row, got, want)
			}
			got, want := s.FinalizeAt(base+row), boxed[row].final(fn)
			if !almostEqual(got, want) {
				t.Fatalf("%v row %d: finalize %v, want %v", fn, row, got, want)
			}
		}
	}
}

// TestStoreMergeMatchesBoxed merges random sub-aggregates across two
// spans and checks against ref oracle merging (MergeRawAt for the
// holistic fallback, MergeAt otherwise).
func TestStoreMergeMatchesBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, fn := range exactFns() {
		s := NewStore(fn)
		src, srcCap := s.Alloc(4)
		dst, dstCap := s.Alloc(4)
		boxedSrc := make([]ref, srcCap)
		boxedDst := make([]ref, dstCap)
		for row := int32(0); row < srcCap; row++ {
			for i := 0; i < r.Intn(5); i++ {
				v := float64(r.Intn(100))
				s.AddAt(src+row, v)
				boxedSrc[row].add(fn, v)
			}
		}
		for step := 0; step < 50; step++ {
			from := int32(r.Intn(int(srcCap)))
			to := int32(r.Intn(int(dstCap)))
			if Shareable(fn) {
				s.MergeAt(dst+to, s, src+from)
			} else {
				s.MergeRawAt(dst+to, s, src+from)
			}
			boxedDst[to].merge(fn, &boxedSrc[from])
		}
		for row := int32(0); row < dstCap; row++ {
			if boxedDst[row].cnt(fn) == 0 {
				continue
			}
			got, want := s.FinalizeAt(dst+row), boxedDst[row].final(fn)
			if !almostEqual(got, want) {
				t.Fatalf("%v row %d: finalize %v, want %v", fn, row, got, want)
			}
		}
	}
}

// TestStoreBatchKernelsMatchScalar checks the engine's batch kernels
// against their scalar counterparts on a second store: AddSlots against
// AddAt, and a sparse-offset MergeSpan (the row loop, not the dense
// sweep) against per-row MergeAt — MergeRawAt for MEDIAN, whose spans
// carry raw values.
func TestStoreBatchKernelsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, fn := range Functions() {
		batch, scalar := NewStore(fn), NewStore(fn)
		bBase, cap := batch.Alloc(16)
		sBase, _ := scalar.Alloc(16)
		bSrc, _ := batch.Alloc(16)
		sSrc, _ := scalar.Alloc(16)

		slots := make([]int32, 0, 64)
		vals := make([]float64, 0, 64)
		for i := 0; i < 64; i++ {
			off := int32(r.Intn(int(cap)))
			v := float64(r.Intn(100))
			slots = append(slots, off)
			vals = append(vals, v)
			scalar.AddAt(sBase+off, v)
		}
		batch.AddSlots(bBase, slots, vals)

		for i := 0; i < 24; i++ {
			off := int32(r.Intn(int(cap)))
			v := float64(r.Intn(100) + 100)
			batch.AddAt(bSrc+off, v)
			scalar.AddAt(sSrc+off, v)
		}
		var offs []int32
		for _, off := range batch.AppendLive(bSrc, cap, nil) {
			if off%3 != 0 { // never the identity prefix: offset 0 is absent
				offs = append(offs, off)
			}
		}
		batch.MergeSpan(bBase, batch, bSrc, offs)
		for _, off := range offs {
			if fn == Median {
				scalar.MergeRawAt(sBase+off, scalar, sSrc+off)
			} else {
				scalar.MergeAt(sBase+off, scalar, sSrc+off)
			}
		}
		for off := int32(0); off < cap; off++ {
			if scalar.LiveAt(sBase+off) != batch.LiveAt(bBase+off) {
				t.Fatalf("%v off %d: live mismatch", fn, off)
			}
			if !scalar.LiveAt(sBase + off) {
				continue
			}
			got, want := batch.FinalizeAt(bBase+off), scalar.FinalizeAt(sBase+off)
			if !almostEqual(got, want) {
				t.Fatalf("%v off %d: batch %v, scalar %v", fn, off, got, want)
			}
		}
	}
}

// TestStoreSpanRecycling exercises Alloc/Release/Grow/Clear: released
// spans come back clean, recycled spans reuse arena rows, and Grow
// relocates occupied rows exactly.
func TestStoreSpanRecycling(t *testing.T) {
	s := NewStore(Sum)
	base, cap := s.Alloc(4)
	if cap != 4 {
		t.Fatalf("Alloc(4) granted cap %d, want 4", cap)
	}
	s.AddAt(base+1, 5)
	s.AddAt(base+3, 7)
	high := s.Rows()
	s.Release(base, cap)
	base2, cap2 := s.Alloc(3)
	if base2 != base || cap2 != 4 {
		t.Fatalf("recycled span = (%d,%d), want (%d,4)", base2, cap2, base)
	}
	if s.Rows() != high {
		t.Fatalf("arena grew on recycle: %d -> %d", high, s.Rows())
	}
	if got := s.AppendLive(base2, cap2, nil); len(got) != 0 {
		t.Fatalf("recycled span not clean: live offsets %v", got)
	}

	// Grow moves occupied rows and frees the old span.
	s.AddAt(base2+0, 1)
	s.AddAt(base2+3, 2)
	nb, nc := s.Grow(base2, cap2, 9)
	if nc != 16 {
		t.Fatalf("Grow granted cap %d, want 16", nc)
	}
	offs := s.AppendLive(nb, nc, nil)
	if len(offs) != 2 || offs[0] != 0 || offs[1] != 3 {
		t.Fatalf("grown span live offsets = %v, want [0 3]", offs)
	}
	if got := s.FinalizeAt(nb + 3); got != 2 {
		t.Fatalf("grown row value = %v, want 2", got)
	}
	// The old span returns to the free list, clean.
	base3, _ := s.Alloc(4)
	if base3 != base2 {
		t.Fatalf("old span not recycled: got %d, want %d", base3, base2)
	}
	if got := s.AppendLive(base3, 4, nil); len(got) != 0 {
		t.Fatalf("freed span not clean: %v", got)
	}

	// Clear keeps ownership but wipes occupancy and values.
	s.AddAt(nb+5, 9)
	s.Clear(nb, nc)
	if got := s.AppendLive(nb, nc, nil); len(got) != 0 {
		t.Fatalf("cleared span still live: %v", got)
	}
	s.AddAt(nb+5, 3)
	if got := s.FinalizeAt(nb + 5); got != 3 {
		t.Fatalf("cleared row accumulated stale state: %v", got)
	}
}

// TestStoreHolisticBuffers checks the MEDIAN side table: raw buffers
// travel through merges, grows and releases without leaking values.
func TestStoreHolisticBuffers(t *testing.T) {
	s := NewStore(Median)
	base, cap := s.Alloc(4)
	for _, v := range []float64{5, 1, 9} {
		s.AddAt(base+2, v)
	}
	if got := s.FinalizeAt(base + 2); got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
	// FinalizeAt must not disturb the stored buffer.
	if got := s.RawAt(base + 2); len(got) != 3 || got[0] != 5 || got[1] != 1 || got[2] != 9 {
		t.Fatalf("raw buffer disturbed: %v", got)
	}
	nb, nc := s.Grow(base, cap, 5)
	if got := s.FinalizeAt(nb + 2); got != 5 {
		t.Fatalf("median after grow = %v, want 5", got)
	}
	s.Release(nb, nc)
	nb2, _ := s.Alloc(5)
	if got := s.RawAt(nb2 + 2); len(got) != 0 {
		t.Fatalf("recycled holistic row kept values: %v", got)
	}
}

// TestCellKernels checks the flat Cell kernels against a Store row fed
// the same adds and merge.
func TestCellKernels(t *testing.T) {
	for _, fn := range ShareableFns() {
		var c Cell
		s := NewStore(fn)
		base, _ := s.Alloc(2)
		for _, v := range []float64{3, -1, 8, 8, 2} {
			CellAdd(fn, &c, v)
			s.AddAt(base, v)
		}
		var c2 Cell
		CellAdd(fn, &c2, 100)
		CellMerge(fn, &c, &c2)
		s.AddAt(base+1, 100)
		s.MergeAt(base, s, base+1)
		if got, want := CellFinal(fn, &c), s.FinalizeAt(base); !almostEqual(got, want) {
			t.Fatalf("%v: cell %v, store %v", fn, got, want)
		}
	}
	var empty Cell
	if got := CellFinal(Count, &empty); got != 0 {
		t.Fatalf("empty COUNT = %v, want 0", got)
	}
	if got := CellFinal(Sum, &empty); !math.IsNaN(got) {
		t.Fatalf("empty SUM = %v, want NaN", got)
	}
}

// TestStateShimNoValsForNonHolistic pins the store's memory shape: only
// MEDIAN may populate the raw-value side table. Every other function
// folds, merges, grows and recycles spans without ever allocating it.
func TestStateShimNoValsForNonHolistic(t *testing.T) {
	for _, fn := range Functions() {
		s := NewStore(fn)
		base, cap := s.Alloc(4)
		for i := 0; i < 100; i++ {
			s.AddAt(base+int32(i)%cap, float64(i))
		}
		s.AddSlots(base, []int32{0, 1, 3}, []float64{1, 2, 3})
		src, _ := s.Alloc(4)
		s.AddAt(src+2, 7)
		s.MergeSpan(base, s, src, s.AppendLive(src, cap, nil))
		nb, nc := s.Grow(base, cap, 9)
		s.Release(nb, nc)
		if got := s.raw != nil; got != (fn == Median) {
			t.Fatalf("%v: raw-value side table allocated = %t, want %t", fn, got, fn == Median)
		}
	}
}

// TestFinalizeSpanMatchesScalar drives random traffic into a span and
// checks the batch finalize kernel against per-row FinalizeAt for every
// function (including MEDIAN's side-table walk), over live-only offsets,
// all offsets (including empty rows), and an empty offset list — the
// batch kernel must be bit-compatible with the scalar one.
func TestFinalizeSpanMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, fn := range Functions() {
		s := NewStore(fn)
		base, cap := s.Alloc(64)
		// Sparse fill: roughly half the rows stay empty.
		for step := 0; step < 800; step++ {
			row := int32(r.Intn(int(cap) / 2))
			s.AddAt(base+row*2, float64(r.Intn(400)-200))
		}
		live := s.AppendLive(base, cap, nil)
		all := make([]int32, cap)
		for i := range all {
			all[i] = int32(i)
		}
		for _, offs := range [][]int32{live, all, nil} {
			got := s.FinalizeSpan(base, offs, nil)
			if len(got) != len(offs) {
				t.Fatalf("%v: FinalizeSpan returned %d values for %d offsets", fn, len(got), len(offs))
			}
			for i, off := range offs {
				want := s.FinalizeAt(base + off)
				if !almostEqual(got[i], want) {
					t.Fatalf("%v off %d: FinalizeSpan %v, FinalizeAt %v", fn, off, got[i], want)
				}
			}
		}
		// Recycled output buffer: values append after existing content.
		buf := []float64{42}
		buf = s.FinalizeSpan(base, live, buf)
		if buf[0] != 42 || len(buf) != 1+len(live) {
			t.Fatalf("%v: FinalizeSpan did not append to the caller's buffer", fn)
		}
	}
}

// mergeSpecials are the bit patterns a merge must carry exactly: NaNs
// with two payloads and both signs, signed zeros, infinities, subnormals
// and the extremes.
var mergeSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e308, -1e308,
}

// cloneStore deep-copies the scalar columns and the occupancy bitmap —
// enough to run one merge on two identical stores.
func cloneStore(s *Store) *Store {
	c := *s
	c.cnt, c.occ = slices.Clone(s.cnt), slices.Clone(s.occ)
	c.min, c.max = slices.Clone(s.min), slices.Clone(s.max)
	c.sum, c.sumsq = slices.Clone(s.sum), slices.Clone(s.sumsq)
	return &c
}

// diffStores names the first row or occupancy word where a and b differ,
// comparing float columns bit for bit; "" means identical. One pattern
// is exempt: two NaNs in a column an addition wrote (sum, sumsq). NaN +
// NaN yields one operand's payload, and which one depends on the
// operand order the compiler picks for the commutative add — it differs
// between a -race build and a plain one — so it is not a property of
// the kernel. MIN and MAX copy values and are compared bit for bit.
func diffStores(a, b *Store) string {
	if a.rows != b.rows {
		return fmt.Sprintf("rows %d vs %d", a.rows, b.rows)
	}
	for w := range a.occ {
		if a.occ[w] != b.occ[w] {
			return fmt.Sprintf("occupancy word %d: %#x vs %#x", w, a.occ[w], b.occ[w])
		}
	}
	cols := []struct {
		name   string
		a, b   []float64
		summed bool
	}{{"min", a.min, b.min, false}, {"max", a.max, b.max, false}, {"sum", a.sum, b.sum, true}, {"sumsq", a.sumsq, b.sumsq, true}}
	for row := int32(0); row < a.rows; row++ {
		if a.cnt[row] != b.cnt[row] {
			return fmt.Sprintf("row %d: cnt %d vs %d", row, a.cnt[row], b.cnt[row])
		}
		for _, col := range cols {
			if len(col.a) == 0 {
				continue
			}
			x, y := col.a[row], col.b[row]
			if math.Float64bits(x) != math.Float64bits(y) && !(col.summed && math.IsNaN(x) && math.IsNaN(y)) {
				return fmt.Sprintf("row %d %s: %#x vs %#x", row, col.name, math.Float64bits(x), math.Float64bits(y))
			}
		}
	}
	return ""
}

// TestMergeSpanDenseMatchesRows checks MergeSpan's dense path against a
// per-row MergeAt reference, bit for bit, for the four kinds it serves
// (SUM's columns also back COUNT and AVG, SUMSQ's back STDEV). Spans
// start off 64-row boundaries and cross occupancy words, neighbouring
// spans hold live rows, cells carry counts above one and the float
// patterns a merge can mangle (NaN payloads, ±0, ±Inf, subnormals,
// ±1e308), and half the trials merge within one store (src == s, the
// way fireFrozen and the migration export call it). Some identity spans
// name empty source rows: the contract lets MergeSpan skip them, and the
// dense path must skip them exactly as the row loop does, leaving their
// destination values, counts and occupancy bits alone. Sparse offsets
// (a shifted identity, a random subset) run beside them and must take
// the row loop to the same answer.
func TestMergeSpanDenseMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	val := func() float64 {
		if r.Intn(3) == 0 {
			return mergeSpecials[r.Intn(len(mergeSpecials))]
		}
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
	}
	fill := func(s *Store, base, n int32, pLive float64) {
		for row := base; row < base+n; row++ {
			if r.Float64() < pLive {
				s.SetCellAt(row, Cell{Cnt: 1 + int64(r.Intn(5)), Min: val(), Max: val(), Sum: val(), SumSq: val()})
			}
		}
	}
	// span pads s with a few live spans of random size, so the span it
	// then returns starts at an arbitrary row, not on a word boundary.
	span := func(s *Store, n int32) (int32, int32) {
		for i := r.Intn(4); i > 0; i-- {
			b, c := s.Alloc(1 + int32(r.Intn(90)))
			fill(s, b, c, 0.5)
		}
		return s.Alloc(n)
	}
	for _, fn := range []Fn{Min, Max, Sum, StdDev} {
		for trial := 0; trial < 400; trial++ {
			k := 1 + int32(r.Intn(200))
			dst := NewStore(fn)
			src := dst
			if trial%2 == 1 {
				src = NewStore(fn)
			}
			dstBase, dstCap := span(dst, k)
			srcBase, srcCap := span(src, k)
			fill(dst, dstBase, dstCap, 0.5)
			pSrc := 1.0
			if trial%4 < 2 {
				pSrc = 0.8 // empty source rows inside the span
			}
			fill(src, srcBase, k, pSrc)
			fill(src, srcBase+k, srcCap-k, 0.5)

			var offs []int32
			switch trial % 8 {
			case 6: // shifted identity 1…k−1: the last offset is not k−1
				for off := int32(1); off < k; off++ {
					offs = append(offs, off)
				}
			case 7: // a random strictly increasing subset
				for off := int32(0); off < k; off++ {
					if r.Intn(2) == 0 {
						offs = append(offs, off)
					}
				}
			default: // identity prefix: the dense path
				for off := int32(0); off < k; off++ {
					offs = append(offs, off)
				}
			}

			ref := cloneStore(dst)
			refSrc := ref
			if src != dst {
				refSrc = cloneStore(src)
			}
			dst.MergeSpan(dstBase, src, srcBase, offs)
			for _, off := range offs {
				ref.MergeAt(dstBase+off, refSrc, srcBase+off)
			}
			if d := diffStores(dst, ref); d != "" {
				t.Fatalf("%v trial %d (k=%d, dst base %d, src base %d, same store %t, %d offsets): %s",
					fn, trial, k, dstBase, srcBase, src == dst, len(offs), d)
			}
			if src != dst {
				if d := diffStores(src, refSrc); d != "" {
					t.Fatalf("%v trial %d: the source store changed: %s", fn, trial, d)
				}
			}
		}
	}
}

// TestFinalizeCellsMatchesScalar checks the batched cell finalizer
// against CellFinal for every shareable function, empty cells included.
func TestFinalizeCellsMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, fn := range ShareableFns() {
		cells := make([]Cell, 32)
		for i := range cells {
			for j := 0; j < r.Intn(6); j++ { // some cells stay empty
				CellAdd(fn, &cells[i], float64(r.Intn(300)-150))
			}
		}
		got := FinalizeCells(fn, cells, nil)
		if len(got) != len(cells) {
			t.Fatalf("%v: %d values for %d cells", fn, len(got), len(cells))
		}
		for i := range cells {
			want := CellFinal(fn, &cells[i])
			if !almostEqual(got[i], want) {
				t.Fatalf("%v cell %d: FinalizeCells %v, CellFinal %v", fn, i, got[i], want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FinalizeCells on MEDIAN must panic")
		}
	}()
	FinalizeCells(Median, make([]Cell, 1), nil)
}

// sketchRef is a direct-driven reference sketch for one store row: the
// store kernels must produce bit-identical estimates to feeding the
// underlying sketch by hand in the same order.
type sketchRef struct {
	q *sketch.Quantile
	h *sketch.HLL
	k *sketch.TopK
}

func newSketchRef(fn Fn) *sketchRef {
	switch fn {
	case Percentile:
		return &sketchRef{q: sketch.New(sketch.DefaultK)}
	case Distinct:
		return &sketchRef{h: sketch.NewHLL(sketch.DefaultP)}
	case TopK:
		return &sketchRef{k: sketch.NewTopK(sketch.DefaultTopKCap)}
	}
	panic("not sketch-backed")
}

func (r *sketchRef) add(v float64) {
	switch {
	case r.q != nil:
		r.q.Add(v)
	case r.h != nil:
		r.h.Add(v)
	default:
		r.k.Add(v)
	}
}

func (r *sketchRef) merge(o *sketchRef) {
	switch {
	case r.q != nil:
		r.q.Merge(o.q)
	case r.h != nil:
		if err := r.h.Merge(o.h); err != nil {
			panic(err)
		}
	default:
		if err := r.k.Merge(o.k); err != nil {
			panic(err)
		}
	}
}

func (r *sketchRef) final(param float64) float64 {
	switch {
	case r.q != nil:
		if param == 0 {
			param = 0.5
		}
		return r.q.Query(param)
	case r.h != nil:
		return r.h.Estimate()
	default:
		k := int(param)
		if k < 1 {
			k = 1
		}
		return r.k.KthValue(k)
	}
}

// TestStoreSketchKernelsMatchReference drives the scalar and slot-batch
// add kernels plus span merges against hand-driven reference
// sketches: the store must be a pure router around the sketch, bit-equal
// under identical operation order.
func TestStoreSketchKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for _, fn := range SketchFns() {
		s := NewStore(fn)
		base, cap := s.Alloc(8)
		refs := make([]*sketchRef, cap)
		for i := range refs {
			refs[i] = newSketchRef(fn)
		}
		// Scalar adds.
		for i := 0; i < 500; i++ {
			row := int32(r.Intn(int(cap)))
			v := float64(r.Intn(50))
			s.AddAt(base+row, v)
			refs[row].add(v)
		}
		// Run-segmented slot batch.
		slots := []int32{0, 3, 3, 5}
		vals := []float64{7, 8, 8, 9}
		s.AddSlots(base, slots, vals)
		for i, sl := range slots {
			refs[sl].add(vals[i])
		}
		// Whole-span merge from a second span.
		src, _ := s.Alloc(8)
		srcRefs := make([]*sketchRef, cap)
		for i := range srcRefs {
			srcRefs[i] = newSketchRef(fn)
		}
		for i := 0; i < 200; i++ {
			row := int32(r.Intn(int(cap)))
			v := float64(r.Intn(50) + 50)
			s.AddAt(src+row, v)
			srcRefs[row].add(v)
		}
		live := s.AppendLive(src, cap, nil)
		s.MergeSpan(base, s, src, live)
		for _, off := range live {
			refs[off].merge(srcRefs[off])
		}
		for _, param := range []float64{0, 0.25, 0.9, 1, 3} {
			if fn == Percentile && param > 1 {
				continue
			}
			if fn != Percentile && param > 0 && param != math.Trunc(param) {
				continue
			}
			s.SetParam(param)
			for row := int32(0); row < cap; row++ {
				if !s.LiveAt(base + row) {
					continue
				}
				got, want := s.FinalizeAt(base+row), refs[row].final(param)
				if !(got == want || (math.IsNaN(got) && math.IsNaN(want))) {
					t.Fatalf("%v row %d param %v: store %v, reference %v", fn, row, param, got, want)
				}
			}
		}
	}
}

// TestStoreSketchRecycling checks that released sketch rows come back
// empty while the sketch allocation itself is retained for the next
// tenant, and that Grow relocates live sketches.
func TestStoreSketchRecycling(t *testing.T) {
	for _, fn := range SketchFns() {
		s := NewStore(fn)
		base, cap := s.Alloc(4)
		s.AddAt(base+1, 5)
		s.AddAt(base+1, 6)
		s.Release(base, cap)
		base2, cap2 := s.Alloc(4)
		if base2 != base {
			t.Fatalf("%v: span not recycled", fn)
		}
		if got := s.AppendLive(base2, cap2, nil); len(got) != 0 {
			t.Fatalf("%v: recycled span not clean: %v", fn, got)
		}
		s.AddAt(base2+1, 9)
		if got := s.cnt[base2+1]; got != 1 {
			t.Fatalf("%v: recycled row kept state: cnt %d", fn, got)
		}
		// Grow moves the live sketch with its row.
		want := s.FinalizeAt(base2 + 1)
		nb, _ := s.Grow(base2, cap2, 9)
		if got := s.FinalizeAt(nb + 1); got != want {
			t.Fatalf("%v: grown row = %v, want %v", fn, got, want)
		}
	}
}

// TestStoreSketchSnapshotRoundTrip checks SketchAt/SetSketchAt: state
// survives the wire bit-exactly, empty rows serialize to nil, and a
// snapshot from a differently-configured sketch is rejected.
func TestStoreSketchSnapshotRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, fn := range SketchFns() {
		s := NewStore(fn)
		base, _ := s.Alloc(4)
		for i := 0; i < 300; i++ {
			s.AddAt(base+1, float64(r.Intn(100)))
		}
		blob, err := s.SketchAt(base + 1)
		if err != nil || len(blob) == 0 {
			t.Fatalf("%v: SketchAt = (%d bytes, %v)", fn, len(blob), err)
		}
		if b, err := s.SketchAt(base + 2); err != nil || b != nil {
			t.Fatalf("%v: empty row SketchAt = (%v, %v), want (nil, nil)", fn, b, err)
		}
		restored := NewStore(fn)
		rb, _ := restored.Alloc(4)
		if err := restored.SetSketchAt(rb+1, blob); err != nil {
			t.Fatalf("%v: SetSketchAt: %v", fn, err)
		}
		restored.cnt[rb+1] = s.cnt[base+1]
		if !restored.LiveAt(rb + 1) {
			t.Fatalf("%v: restored row not live", fn)
		}
		if got, want := restored.FinalizeAt(rb+1), s.FinalizeAt(base+1); got != want {
			t.Fatalf("%v: restored %v, want %v", fn, got, want)
		}
		// Continued adds after restore must match the original exactly
		// (the wire forms persist RNG state for deterministic resume).
		for i := 0; i < 50; i++ {
			v := float64(r.Intn(100))
			s.AddAt(base+1, v)
			restored.AddAt(rb+1, v)
		}
		if got, want := restored.FinalizeAt(rb+1), s.FinalizeAt(base+1); got != want {
			t.Fatalf("%v: post-restore divergence: %v vs %v", fn, got, want)
		}

		// A snapshot from a non-default configuration must be rejected.
		var mis []byte
		switch fn {
		case Percentile:
			q := sketch.New(sketch.DefaultK * 2)
			q.Add(1)
			mis, _ = q.MarshalBinary()
		case Distinct:
			h := sketch.NewHLL(sketch.DefaultP + 1)
			h.Add(1)
			mis, _ = h.MarshalBinary()
		case TopK:
			k := sketch.NewTopK(sketch.DefaultTopKCap / 2)
			k.Add(1)
			mis, _ = k.MarshalBinary()
		}
		if err := restored.SetSketchAt(rb+3, mis); err == nil {
			t.Fatalf("%v: SetSketchAt accepted a mismatched sketch configuration", fn)
		}
	}
}
