// Columnar aggregate state. Store keeps the partial aggregates of many
// (window instance, key) pairs as dense parallel columns instead of boxed
// per-pair values: one allocation-free arena per operator, with
// only the columns the aggregate function actually needs (SUM keeps a
// count and a sum; STDEV adds a sum of squares; MIN/MAX keep a single
// extremum; MEDIAN falls back to per-row raw-value buffers). An occupancy
// bitmap makes firing a window instance a sparse scan, and freed instance
// spans are recycled through per-size free lists so steady-state folding
// performs zero heap allocations per event.
//
// The engine runs one batch kernel per job — AddSlots folds raw values,
// MergeSpan merges sub-aggregate spans, FinalizeSpan finalizes a fired
// span — each hoisting the per-function dispatch out of its row loop.
// The baselines' single-row updates use the scalar AddAt/MergeAt/
// MergeRawAt.

package agg

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"factorwindows/internal/sketch"
)

// Cell is the flat, fixed-size partial-aggregate value: the columnar
// row type, and the element the sliding baseline's pane stacks hold by
// value. It carries no raw-value buffer, so distributive
// and algebraic functions pay for exactly the scalars they use.
type Cell struct {
	Cnt   int64
	Sum   float64
	SumSq float64
	Min   float64
	Max   float64
}

// Empty reports whether the cell has absorbed no input.
func (c *Cell) Empty() bool { return c.Cnt == 0 }

// Reset clears the cell for reuse.
func (c *Cell) Reset() { *c = Cell{} }

// CellAdd folds one raw event value into c. It panics for holistic
// functions, which need raw-value buffers (use a Store).
func CellAdd(f Fn, c *Cell, v float64) {
	switch f {
	case Min:
		if c.Cnt == 0 || v < c.Min {
			c.Min = v
		}
	case Max:
		if c.Cnt == 0 || v > c.Max {
			c.Max = v
		}
	case Sum, Count, Avg:
		c.Sum += v
	case StdDev:
		c.Sum += v
		c.SumSq += v * v
	default:
		panic(fmt.Sprintf("agg: CellAdd on %v", f))
	}
	c.Cnt++
}

// CellMerge folds the sub-aggregate src into dst. It panics for
// holistic functions, which cannot be computed from sub-aggregates
// (Section III-A); for "partitioned by" functions the caller must
// guarantee disjoint sub-aggregates, for MIN/MAX overlap is safe.
func CellMerge(f Fn, dst, src *Cell) {
	if src.Cnt == 0 {
		return
	}
	switch f {
	case Min:
		if dst.Cnt == 0 || src.Min < dst.Min {
			dst.Min = src.Min
		}
	case Max:
		if dst.Cnt == 0 || src.Max > dst.Max {
			dst.Max = src.Max
		}
	case Sum, Count, Avg:
		dst.Sum += src.Sum
	case StdDev:
		dst.Sum += src.Sum
		dst.SumSq += src.SumSq
	default:
		panic(fmt.Sprintf("agg: CellMerge unsupported for %v (%v)", f, ClassOf(f)))
	}
	dst.Cnt += src.Cnt
}

// CellFinal computes the aggregate result from c. For an empty cell it
// returns NaN for value aggregates and 0 for COUNT (windows with no
// events are normally not emitted at all).
func CellFinal(f Fn, c *Cell) float64 {
	if c.Cnt == 0 {
		if f == Count {
			return 0
		}
		return math.NaN()
	}
	switch f {
	case Min:
		return c.Min
	case Max:
		return c.Max
	case Sum:
		return c.Sum
	case Count:
		return float64(c.Cnt)
	case Avg:
		return c.Sum / float64(c.Cnt)
	case StdDev:
		n := float64(c.Cnt)
		mean := c.Sum / n
		v := c.SumSq/n - mean*mean
		if v < 0 {
			v = 0 // guard tiny negative from float rounding
		}
		return math.Sqrt(v)
	default:
		panic(fmt.Sprintf("agg: CellFinal on %v", f))
	}
}

// storeKind is the function-specialized kernel selector, resolved once
// at store construction. The four scalar-column kinds come first:
// MergeSpan's dense path is kind <= storeSumSq.
type storeKind uint8

const (
	storeMin storeKind = iota
	storeMax
	storeSum   // SUM, COUNT, AVG: count + sum
	storeSumSq // STDEV: count + sum + sum of squares
	storeRaw   // MEDIAN (holistic): count + raw-value buffer
	storeQuant // PERCENTILE: count + quantile-sketch side table
	storeHLL   // DISTINCT: count + HyperLogLog side table
	storeTopK  // TOPK: count + Misra-Gries side table
)

func storeKindOf(f Fn) storeKind {
	switch f {
	case Min:
		return storeMin
	case Max:
		return storeMax
	case Sum, Count, Avg:
		return storeSum
	case StdDev:
		return storeSumSq
	case Median:
		return storeRaw
	case Percentile:
		return storeQuant
	case Distinct:
		return storeHLL
	case TopK:
		return storeTopK
	default:
		panic(fmt.Sprintf("agg: no store kernel for %v", f))
	}
}

// minSpanClass is the smallest span size class (1<<2 = 4 rows), so tiny
// key spaces still amortize span bookkeeping.
const minSpanClass = 2

// sketchTopKCap mirrors sketch.DefaultTopKCap for ValidateParam's rank
// bound: a TOPK rank beyond the summary's capacity could never be
// answered.
const sketchTopKCap = float64(sketch.DefaultTopKCap)

// Store is a columnar arena of partial-aggregate rows for one aggregate
// function. Rows are handed out in contiguous spans (one span per window
// instance or slice), addressed as span base + key slot; spans recycle
// through power-of-two size-class free lists. Not safe for concurrent
// use — like the executors it backs, one Store belongs to one operator.
type Store struct {
	fn   Fn
	kind storeKind

	// Parallel columns; only the ones the function needs are populated.
	cnt   []int64
	sum   []float64
	sumsq []float64
	min   []float64
	max   []float64
	// raw holds per-row raw-value buffers — a side table populated only
	// for holistic functions (nil column otherwise); buffers are sparse,
	// allocated on a row's first value and recycled with the span.
	raw [][]float64
	// qs/hs/ts are the sketch side tables (one per sketch-backed kind;
	// only the matching one is ever populated). Like raw they are sparse
	// — a sketch is allocated on a row's first value and kept, Reset,
	// across span recycling — so steady-state folding stays
	// allocation-free once the working set of rows has warmed up.
	qs []*sketch.Quantile
	hs []*sketch.HLL
	ts []*sketch.TopK

	// occ is the occupancy bitmap, one bit per row, set on the row's
	// first absorbed input and cleared when its span is released.
	occ []uint64

	rows    int32       // high-water mark of allocated rows
	free    [32][]int32 // free span bases, indexed by size class (log2)
	scratch []float64   // reused by holistic finalization
	moveBuf []int32     // reused by Grow's row relocation

	// Sketch configuration (fixed at construction; every sketch of a
	// store — and of every store a pipeline merges across — shares it)
	// and the finalize-time parameter (φ for PERCENTILE, k for TOPK;
	// zero selects the function default). The parameter affects only
	// FinalizeAt/FinalizeSpan, never the state, so it may be (re)set any
	// time before finalization.
	quantK  int
	hllP    int
	topkCap int
	param   float64
}

// NewStore creates an empty columnar store specialized for fn. Sketch-
// backed stores use the library default sketch configuration
// (sketch.DefaultK / DefaultP / DefaultTopKCap).
func NewStore(fn Fn) *Store {
	if !fn.Valid() {
		panic(fmt.Sprintf("agg: NewStore on invalid function %v", fn))
	}
	return &Store{
		fn: fn, kind: storeKindOf(fn),
		quantK: sketch.DefaultK, hllP: sketch.DefaultP, topkCap: sketch.DefaultTopKCap,
	}
}

// Fn returns the aggregate function the store is specialized for.
func (s *Store) Fn() Fn { return s.fn }

// Holistic reports whether the store keeps raw-value buffers.
func (s *Store) Holistic() bool { return s.kind == storeRaw }

// Sketched reports whether the store keeps a sketch side table.
func (s *Store) Sketched() bool {
	return s.kind == storeQuant || s.kind == storeHLL || s.kind == storeTopK
}

// SetParam sets the finalize-time parameter (φ for PERCENTILE, k for
// TOPK; ignored by other functions). Zero selects the default (φ = 0.5,
// k = 1). State is parameter-independent, so the knob only changes what
// FinalizeAt/FinalizeSpan answer.
func (s *Store) SetParam(p float64) { s.param = p }

// Param returns the finalize-time parameter.
func (s *Store) Param() float64 { return s.param }

// qat/hat/tat materialize a row's sketch on first touch.
func (s *Store) qat(row int32) *sketch.Quantile {
	q := s.qs[row]
	if q == nil {
		q = sketch.New(s.quantK)
		s.qs[row] = q
	}
	return q
}

func (s *Store) hat(row int32) *sketch.HLL {
	h := s.hs[row]
	if h == nil {
		h = sketch.NewHLL(s.hllP)
		s.hs[row] = h
	}
	return h
}

func (s *Store) tat(row int32) *sketch.TopK {
	t := s.ts[row]
	if t == nil {
		t = sketch.NewTopK(s.topkCap)
		s.ts[row] = t
	}
	return t
}

// Rows returns the arena's high-water mark (allocated rows, live or
// recycled) — an observability counter, not a live-row count.
func (s *Store) Rows() int32 { return s.rows }

// classFor returns the size class (log2 of the span length) covering n.
func classFor(n int32) uint {
	if n < 1<<minSpanClass {
		return minSpanClass
	}
	return uint(bits.Len32(uint32(n - 1)))
}

// Alloc returns the base row of a zeroed span holding at least n rows;
// its true capacity is the next power-of-two size class. Freed spans of the same class are
// reused before the arena grows.
func (s *Store) Alloc(n int32) (base, cap int32) {
	c := classFor(n)
	size := int32(1) << c
	if l := s.free[c]; len(l) > 0 {
		base = l[len(l)-1]
		s.free[c] = l[:len(l)-1]
		return base, size
	}
	base = s.rows
	s.rows += size
	s.grow(int(s.rows))
	return base, size
}

// grow extends the columns (and bitmap) to cover rows, doubling the
// backing arrays so arena growth costs one allocation per column per
// doubling. Freshly exposed rows are zero: columns only ever extend
// (never shrink) and released rows are cleared eagerly.
func (s *Store) grow(rows int) {
	s.cnt = extend(s.cnt, rows)
	switch s.kind {
	case storeMin:
		s.min = extend(s.min, rows)
	case storeMax:
		s.max = extend(s.max, rows)
	case storeSum:
		s.sum = extend(s.sum, rows)
	case storeSumSq:
		s.sum = extend(s.sum, rows)
		s.sumsq = extend(s.sumsq, rows)
	case storeRaw:
		s.raw = extend(s.raw, rows)
	case storeQuant:
		s.qs = extend(s.qs, rows)
	case storeHLL:
		s.hs = extend(s.hs, rows)
	case storeTopK:
		s.ts = extend(s.ts, rows)
	}
	s.occ = extend(s.occ, (rows+63)/64)
}

// extend grows col to n elements, zero-filled, doubling capacity.
func extend[T any](col []T, n int) []T {
	if len(col) >= n {
		return col
	}
	if cap(col) >= n {
		return col[:n] // the tail past len is still zero (see grow)
	}
	c := 2 * cap(col)
	if c < n {
		c = n
	}
	out := make([]T, n, c)
	copy(out, col)
	return out
}

// Release clears the span's occupied rows and recycles it. cap must be
// the capacity Alloc (or Grow) granted.
func (s *Store) Release(base, cap int32) {
	s.Clear(base, cap)
	s.free[classFor(cap)] = append(s.free[classFor(cap)], base)
}

// Clear zeroes the span's rows and occupancy bits, keeping the span
// owned by the caller. Non-holistic columns clear with straight memsets
// over the whole span — for the dense instances the executors fire and
// recycle, that is far cheaper than the sparse per-row switch walk
// (unoccupied rows are already zero, so over-clearing is free).
// Holistic and sketch-backed stores still walk the occupied rows so each
// row's raw-value buffer or sketch is kept for the span's next tenant.
func (s *Store) Clear(base, cap int32) {
	if s.kind == storeRaw || s.Sketched() {
		s.moveBuf = s.AppendLive(base, cap, s.moveBuf[:0])
		for _, off := range s.moveBuf {
			row := base + off
			s.clearRow(row)
			s.occ[row>>6] &^= 1 << (uint(row) & 63)
		}
		return
	}
	clear(s.cnt[base : base+cap])
	switch s.kind {
	case storeMin:
		clear(s.min[base : base+cap])
	case storeMax:
		clear(s.max[base : base+cap])
	case storeSum:
		clear(s.sum[base : base+cap])
	case storeSumSq:
		clear(s.sum[base : base+cap])
		clear(s.sumsq[base : base+cap])
	}
	// Clear the span's occupancy bits word-wise, masking the edge words
	// shared with neighbouring spans (the dual of AppendLive's scan).
	lo, hi := base, base+cap
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		s.occ[w] &^= spanWordMask(lo, hi, w)
	}
}

// spanWordMask returns the bits of occupancy word w that fall inside
// the row interval [lo, hi) — the edge-word masking shared by every
// span bitmap walk (AppendLive's scan, Clear's bulk reset and
// mergeDense's bulk set). The
// right-edge shift is safe because callers only visit words up to
// (hi-1)>>6, which excludes the hi&63 == 0 case for the last word.
func spanWordMask(lo, hi, w int32) uint64 {
	mask := ^uint64(0)
	if lo > w<<6 {
		mask &= ^uint64(0) << (uint(lo) & 63)
	}
	if hi < (w+1)<<6 {
		mask &= ^uint64(0) >> (64 - (uint(hi) & 63))
	}
	return mask
}

func (s *Store) clearRow(row int32) {
	s.cnt[row] = 0
	switch s.kind {
	case storeMin:
		s.min[row] = 0
	case storeMax:
		s.max[row] = 0
	case storeSum:
		s.sum[row] = 0
	case storeSumSq:
		s.sum[row] = 0
		s.sumsq[row] = 0
	case storeRaw:
		s.raw[row] = s.raw[row][:0] // keep the buffer for the next tenant
	case storeQuant:
		if q := s.qs[row]; q != nil {
			q.Reset() // keep the sketch (and its buffers) for the next tenant
		}
	case storeHLL:
		if h := s.hs[row]; h != nil {
			h.Reset()
		}
	case storeTopK:
		if t := s.ts[row]; t != nil {
			t.Reset()
		}
	}
}

// Grow moves a span to a larger one (as Alloc(need) grants), copying
// its occupied rows and releasing the old span. It returns the new base
// and capacity. Row addresses change: callers must not hold row indices
// into the old span across a Grow.
func (s *Store) Grow(base, cap, need int32) (int32, int32) {
	if need <= cap {
		return base, cap
	}
	nb, nc := s.Alloc(need)
	s.moveBuf = s.AppendLive(base, cap, s.moveBuf[:0])
	for _, off := range s.moveBuf {
		src, dst := base+off, nb+off
		s.cnt[dst] = s.cnt[src]
		switch s.kind {
		case storeMin:
			s.min[dst] = s.min[src]
		case storeMax:
			s.max[dst] = s.max[src]
		case storeSum:
			s.sum[dst] = s.sum[src]
		case storeSumSq:
			s.sum[dst] = s.sum[src]
			s.sumsq[dst] = s.sumsq[src]
		case storeRaw:
			s.raw[dst] = append(s.raw[dst][:0], s.raw[src]...)
		case storeQuant:
			// Swap, not copy: the live sketch moves with its row and any
			// recycled sketch parked at dst stays available at src for the
			// released span's next tenant.
			s.qs[dst], s.qs[src] = s.qs[src], s.qs[dst]
		case storeHLL:
			s.hs[dst], s.hs[src] = s.hs[src], s.hs[dst]
		case storeTopK:
			s.ts[dst], s.ts[src] = s.ts[src], s.ts[dst]
		}
		s.occ[dst>>6] |= 1 << (uint(dst) & 63)
	}
	s.Release(base, cap)
	return nb, nc
}

// AppendLive appends the offsets (0-based within the span) of occupied
// rows to buf, in increasing order. Offsets equal key slots in every
// executor, so this is the sparse "which keys fired" scan.
func (s *Store) AppendLive(base, cap int32, buf []int32) []int32 {
	lo, hi := base, base+cap
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		live := s.occ[w] & spanWordMask(lo, hi, w)
		for live != 0 {
			row := w<<6 + int32(bits.TrailingZeros64(live))
			live &= live - 1
			buf = append(buf, row-base)
		}
	}
	return buf
}

// LiveAt reports whether the row has absorbed input.
func (s *Store) LiveAt(row int32) bool {
	return s.occ[row>>6]&(1<<(uint(row)&63)) != 0
}

// AddAt folds one raw value into the row (scalar kernel).
func (s *Store) AddAt(row int32, v float64) {
	switch s.kind {
	case storeMin:
		if s.cnt[row] == 0 || v < s.min[row] {
			s.min[row] = v
		}
	case storeMax:
		if s.cnt[row] == 0 || v > s.max[row] {
			s.max[row] = v
		}
	case storeSum:
		s.sum[row] += v
	case storeSumSq:
		s.sum[row] += v
		s.sumsq[row] += v * v
	case storeRaw:
		s.raw[row] = append(s.raw[row], v)
	case storeQuant:
		s.qat(row).Add(v)
	case storeHLL:
		s.hat(row).Add(v)
	case storeTopK:
		s.tat(row).Add(v)
	}
	s.cnt[row]++
	s.occ[row>>6] |= 1 << (uint(row) & 63)
}

// AddSlots folds vals[i] into row base+slots[i] for every i — the
// engine's run-segmented raw path, where a run of events sharing one
// time bucket lands in the same window instance (span base) at
// per-event key slots. One dispatch covers the whole run.
func (s *Store) AddSlots(base int32, slots []int32, vals []float64) {
	switch s.kind {
	case storeMin:
		for i, sl := range slots {
			r := base + sl
			v := vals[i]
			if s.cnt[r] == 0 || v < s.min[r] {
				s.min[r] = v
			}
			s.cnt[r]++
			s.occ[r>>6] |= 1 << (uint(r) & 63)
		}
	case storeMax:
		for i, sl := range slots {
			r := base + sl
			v := vals[i]
			if s.cnt[r] == 0 || v > s.max[r] {
				s.max[r] = v
			}
			s.cnt[r]++
			s.occ[r>>6] |= 1 << (uint(r) & 63)
		}
	case storeSum:
		for i, sl := range slots {
			r := base + sl
			s.sum[r] += vals[i]
			s.cnt[r]++
			s.occ[r>>6] |= 1 << (uint(r) & 63)
		}
	case storeSumSq:
		for i, sl := range slots {
			r := base + sl
			v := vals[i]
			s.sum[r] += v
			s.sumsq[r] += v * v
			s.cnt[r]++
			s.occ[r>>6] |= 1 << (uint(r) & 63)
		}
	case storeRaw:
		for i, sl := range slots {
			r := base + sl
			s.raw[r] = append(s.raw[r], vals[i])
			s.cnt[r]++
			s.occ[r>>6] |= 1 << (uint(r) & 63)
		}
	case storeQuant:
		for i, sl := range slots {
			r := base + sl
			s.qat(r).Add(vals[i])
			s.cnt[r]++
			s.occ[r>>6] |= 1 << (uint(r) & 63)
		}
	case storeHLL:
		for i, sl := range slots {
			r := base + sl
			s.hat(r).Add(vals[i])
			s.cnt[r]++
			s.occ[r>>6] |= 1 << (uint(r) & 63)
		}
	case storeTopK:
		for i, sl := range slots {
			r := base + sl
			s.tat(r).Add(vals[i])
			s.cnt[r]++
			s.occ[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// mergeSketchRow folds src's sketch at srcRow into this store's sketch
// at dst (sketch-backed kinds only; count and occupancy are the
// caller's). Sketches merge only with a uniform configuration; both
// stores are built from the same construction defaults, so a mismatch
// means corrupt state (e.g. a tampered checkpoint slipped past
// SetSketchAt) and panics rather than silently skewing estimates.
func (s *Store) mergeSketchRow(dst int32, src *Store, srcRow int32) {
	switch s.kind {
	case storeQuant:
		if q := src.qs[srcRow]; q != nil {
			s.qat(dst).Merge(q)
		}
	case storeHLL:
		if h := src.hs[srcRow]; h != nil {
			if err := s.hat(dst).Merge(h); err != nil {
				panic(fmt.Sprintf("agg: %v", err))
			}
		}
	case storeTopK:
		if t := src.ts[srcRow]; t != nil {
			if err := s.tat(dst).Merge(t); err != nil {
				panic(fmt.Sprintf("agg: %v", err))
			}
		}
	}
}

// MergeAt folds src's row srcRow into this store's row dst. Both stores
// must be specialized for the same function. Sketch-backed rows merge
// their sketches; it panics for exact holistic functions (use
// MergeRawAt), mirroring CellMerge.
func (s *Store) MergeAt(dst int32, src *Store, srcRow int32) {
	if src.cnt[srcRow] == 0 {
		return
	}
	switch s.kind {
	case storeMin:
		if s.cnt[dst] == 0 || src.min[srcRow] < s.min[dst] {
			s.min[dst] = src.min[srcRow]
		}
	case storeMax:
		if s.cnt[dst] == 0 || src.max[srcRow] > s.max[dst] {
			s.max[dst] = src.max[srcRow]
		}
	case storeSum:
		s.sum[dst] += src.sum[srcRow]
	case storeSumSq:
		s.sum[dst] += src.sum[srcRow]
		s.sumsq[dst] += src.sumsq[srcRow]
	case storeQuant, storeHLL, storeTopK:
		s.mergeSketchRow(dst, src, srcRow)
	default:
		panic(fmt.Sprintf("agg: MergeAt unsupported for %v (%v)", s.fn, ClassOf(s.fn)))
	}
	s.cnt[dst] += src.cnt[srcRow]
	s.occ[dst>>6] |= 1 << (uint(dst) & 63)
}

// MergeSpan folds src's rows srcBase+off into this store's rows
// dstBase+off for every offset in offs — the whole-span sub-aggregate
// hand-off a fired parent instance makes to a child operator sharing
// the same key-slot numbering. One dispatch covers the span; holistic
// stores carry raw values (the engine's MEDIAN fallback). Offsets must
// be strictly increasing and address live src rows (AppendLive output);
// empty rows are skipped. src may be this store (the spans must not
// overlap).
//
// A fully-live span — offs is the identity prefix 0…k−1, which for
// strictly increasing offsets is exactly offs[k−1] == k−1 — of a MIN,
// MAX, SUM or STDEV store merges as contiguous column sweeps
// (mergeDense), with the same per-row compare, count add and empty-row
// skip as the row loop below. Sparse spans, MEDIAN and the sketch kinds
// take the row loop.
func (s *Store) MergeSpan(dstBase int32, src *Store, srcBase int32, offs []int32) {
	if k := len(offs); k > 0 && offs[k-1] == int32(k-1) && s.kind <= storeSumSq {
		s.mergeDense(dstBase, src, srcBase, int32(k))
		return
	}
	switch s.kind {
	case storeMin:
		for _, off := range offs {
			sr := srcBase + off
			if src.cnt[sr] == 0 {
				continue
			}
			d := dstBase + off
			if s.cnt[d] == 0 || src.min[sr] < s.min[d] {
				s.min[d] = src.min[sr]
			}
			s.cnt[d] += src.cnt[sr]
			s.occ[d>>6] |= 1 << (uint(d) & 63)
		}
	case storeMax:
		for _, off := range offs {
			sr := srcBase + off
			if src.cnt[sr] == 0 {
				continue
			}
			d := dstBase + off
			if s.cnt[d] == 0 || src.max[sr] > s.max[d] {
				s.max[d] = src.max[sr]
			}
			s.cnt[d] += src.cnt[sr]
			s.occ[d>>6] |= 1 << (uint(d) & 63)
		}
	case storeSum:
		for _, off := range offs {
			sr := srcBase + off
			if src.cnt[sr] == 0 {
				continue
			}
			d := dstBase + off
			s.sum[d] += src.sum[sr]
			s.cnt[d] += src.cnt[sr]
			s.occ[d>>6] |= 1 << (uint(d) & 63)
		}
	case storeSumSq:
		for _, off := range offs {
			sr := srcBase + off
			if src.cnt[sr] == 0 {
				continue
			}
			d := dstBase + off
			s.sum[d] += src.sum[sr]
			s.sumsq[d] += src.sumsq[sr]
			s.cnt[d] += src.cnt[sr]
			s.occ[d>>6] |= 1 << (uint(d) & 63)
		}
	case storeRaw:
		for _, off := range offs {
			sr := srcBase + off
			if src.cnt[sr] == 0 {
				continue
			}
			d := dstBase + off
			s.raw[d] = append(s.raw[d], src.raw[sr]...)
			s.cnt[d] += src.cnt[sr]
			s.occ[d>>6] |= 1 << (uint(d) & 63)
		}
	case storeQuant, storeHLL, storeTopK:
		for _, off := range offs {
			sr := srcBase + off
			if src.cnt[sr] == 0 {
				continue
			}
			d := dstBase + off
			s.mergeSketchRow(d, src, sr)
			s.cnt[d] += src.cnt[sr]
			s.occ[d>>6] |= 1 << (uint(d) & 63)
		}
	}
}

// mergeDense is MergeSpan over the k rows of a fully-live span for the
// scalar kinds: one loop per kind over column slices cut once, so there
// is no offset indirection and no per-row bounds check, MIN and MAX
// select without a branch (pick), and the destination's occupancy bits
// are set a word at a time. Row i does exactly what the row loop does at
// offset i, in the same order, so the results are bit-identical. Only
// when an empty source row was skipped (an identity offset naming a
// dead row) are occupancy bits set per merged row instead.
func (s *Store) mergeDense(dstBase int32, src *Store, srcBase, k int32) {
	// Every column is re-cut to len(sc): that, not the k they were cut
	// with, is what lets the compiler drop the per-row bounds checks.
	sc := src.cnt[srcBase : srcBase+k]
	dc := s.cnt[dstBase : dstBase+k]
	dc = dc[:len(sc)]
	skipped := false
	switch s.kind {
	case storeMin:
		sv, dv := src.min[srcBase:srcBase+k], s.min[dstBase:dstBase+k]
		sv, dv = sv[:len(sc)], dv[:len(sc)]
		for i, c := range sc {
			if c == 0 {
				skipped = true
				continue
			}
			dv[i] = pick(sv[i] < dv[i], dc[i] == 0, sv[i], dv[i])
			dc[i] += c
		}
	case storeMax:
		sv, dv := src.max[srcBase:srcBase+k], s.max[dstBase:dstBase+k]
		sv, dv = sv[:len(sc)], dv[:len(sc)]
		for i, c := range sc {
			if c == 0 {
				skipped = true
				continue
			}
			dv[i] = pick(sv[i] > dv[i], dc[i] == 0, sv[i], dv[i])
			dc[i] += c
		}
	case storeSum:
		sv, dv := src.sum[srcBase:srcBase+k], s.sum[dstBase:dstBase+k]
		sv, dv = sv[:len(sc)], dv[:len(sc)]
		for i, c := range sc {
			if c == 0 {
				skipped = true
				continue
			}
			dv[i] += sv[i]
			dc[i] += c
		}
	case storeSumSq:
		sv, dv := src.sum[srcBase:srcBase+k], s.sum[dstBase:dstBase+k]
		sq, dq := src.sumsq[srcBase:srcBase+k], s.sumsq[dstBase:dstBase+k]
		sv, dv, sq, dq = sv[:len(sc)], dv[:len(sc)], sq[:len(sc)], dq[:len(sc)]
		for i, c := range sc {
			if c == 0 {
				skipped = true
				continue
			}
			dv[i] += sv[i]
			dq[i] += sq[i]
			dc[i] += c
		}
	}
	if skipped {
		for i, c := range sc {
			if c != 0 {
				d := dstBase + int32(i)
				s.occ[d>>6] |= 1 << (uint(d) & 63)
			}
		}
		return
	}
	lo, hi := dstBase, dstBase+k
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		s.occ[w] |= spanWordMask(lo, hi, w)
	}
}

// pick is the dense loops' branch-free form of the row loop's "if the
// destination is empty or the source is better, take the source": it
// returns v when either flag is set and d otherwise. Whether a MIN or
// MAX improves is data-dependent, so a branch on it mispredicts about as
// often as it is taken. The bits are selected, never computed, so NaN
// payloads and signed zeros come through unchanged.
func pick(better, dstEmpty bool, v, d float64) float64 {
	m := -(b2u(better) | b2u(dstEmpty))
	vb, db := math.Float64bits(v), math.Float64bits(d)
	return math.Float64frombits(db ^ (db^vb)&m)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MergeRawAt folds src's row srcRow into row dst for any function,
// carrying raw values for holistic ones (the slicing executor's
// Section III-A fallback).
func (s *Store) MergeRawAt(dst int32, src *Store, srcRow int32) {
	if s.kind != storeRaw {
		s.MergeAt(dst, src, srcRow)
		return
	}
	if src.cnt[srcRow] == 0 {
		return
	}
	s.raw[dst] = append(s.raw[dst], src.raw[srcRow]...)
	s.cnt[dst] += src.cnt[srcRow]
	s.occ[dst>>6] |= 1 << (uint(dst) & 63)
}

// phi resolves the PERCENTILE parameter: φ in (0, 1], default 0.5 (the
// median).
func (s *Store) phi() float64 {
	if s.param > 0 && s.param <= 1 {
		return s.param
	}
	return 0.5
}

// topkK resolves the TOPK parameter: rank k ≥ 1, default 1 (the mode).
func (s *Store) topkK() int {
	if k := int(s.param); k >= 1 {
		return k
	}
	return 1
}

// FinalizeAt computes the aggregate result of the row, leaving the row's
// state intact (holistic finalization sorts a scratch copy; sketch rows
// query their sketch with the store's finalize parameter).
func (s *Store) FinalizeAt(row int32) float64 {
	n := s.cnt[row]
	if n == 0 {
		if s.fn == Count || s.fn == Distinct {
			return 0
		}
		return math.NaN()
	}
	switch s.kind {
	case storeMin:
		return s.min[row]
	case storeMax:
		return s.max[row]
	case storeSum:
		switch s.fn {
		case Sum:
			return s.sum[row]
		case Count:
			return float64(n)
		default: // Avg
			return s.sum[row] / float64(n)
		}
	case storeSumSq:
		nf := float64(n)
		mean := s.sum[row] / nf
		v := s.sumsq[row]/nf - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v)
	case storeQuant:
		return s.qs[row].Query(s.phi())
	case storeHLL:
		return s.hs[row].Estimate()
	case storeTopK:
		return s.ts[row].KthValue(s.topkK())
	default: // storeRaw: MEDIAN over a sorted scratch copy
		s.scratch = append(s.scratch[:0], s.raw[row]...)
		sort.Float64s(s.scratch)
		k := len(s.scratch)
		if k%2 == 1 {
			return s.scratch[k/2]
		}
		return (s.scratch[k/2-1] + s.scratch[k/2]) / 2
	}
}

// FinalizeSpan is the batch form of FinalizeAt: it computes the
// aggregate result of row base+off for every offset in offs (the live
// offsets AppendLive yields when a window instance fires), appending one
// value per offset to out and returning it. The function dispatch — and
// for AVG/STDEV the arithmetic shape — is hoisted out of the loop, one
// specialized column walk per call; MEDIAN walks the raw-value side
// table, sorting a scratch copy per row like FinalizeAt. Rows' state is
// left intact. Callers recycle out across fires, so steady-state
// finalization performs zero heap allocations.
func (s *Store) FinalizeSpan(base int32, offs []int32, out []float64) []float64 {
	switch s.kind {
	case storeMin:
		for _, off := range offs {
			r := base + off
			if s.cnt[r] == 0 {
				out = append(out, math.NaN())
				continue
			}
			out = append(out, s.min[r])
		}
	case storeMax:
		for _, off := range offs {
			r := base + off
			if s.cnt[r] == 0 {
				out = append(out, math.NaN())
				continue
			}
			out = append(out, s.max[r])
		}
	case storeSum:
		switch s.fn {
		case Sum:
			for _, off := range offs {
				r := base + off
				if s.cnt[r] == 0 {
					out = append(out, math.NaN())
					continue
				}
				out = append(out, s.sum[r])
			}
		case Count:
			for _, off := range offs {
				out = append(out, float64(s.cnt[base+off]))
			}
		default: // Avg
			for _, off := range offs {
				r := base + off
				if s.cnt[r] == 0 {
					out = append(out, math.NaN())
					continue
				}
				out = append(out, s.sum[r]/float64(s.cnt[r]))
			}
		}
	case storeSumSq:
		for _, off := range offs {
			r := base + off
			n := s.cnt[r]
			if n == 0 {
				out = append(out, math.NaN())
				continue
			}
			nf := float64(n)
			mean := s.sum[r] / nf
			v := s.sumsq[r]/nf - mean*mean
			if v < 0 {
				v = 0
			}
			out = append(out, math.Sqrt(v))
		}
	default: // storeRaw sorts a scratch copy per row; sketch rows query their sketch
		for _, off := range offs {
			out = append(out, s.FinalizeAt(base+off))
		}
	}
	return out
}

// FinalizeCells is the batch form of CellFinal: one function dispatch
// finalizes every cell, appending one value per cell to out. The sliding
// baseline's pane-close path uses it to finalize a whole key sweep at
// once. Like CellFinal it panics for holistic functions.
func FinalizeCells(f Fn, cells []Cell, out []float64) []float64 {
	switch f {
	case Min:
		for i := range cells {
			if cells[i].Cnt == 0 {
				out = append(out, math.NaN())
				continue
			}
			out = append(out, cells[i].Min)
		}
	case Max:
		for i := range cells {
			if cells[i].Cnt == 0 {
				out = append(out, math.NaN())
				continue
			}
			out = append(out, cells[i].Max)
		}
	case Sum:
		for i := range cells {
			if cells[i].Cnt == 0 {
				out = append(out, math.NaN())
				continue
			}
			out = append(out, cells[i].Sum)
		}
	case Count:
		for i := range cells {
			out = append(out, float64(cells[i].Cnt))
		}
	case Avg:
		for i := range cells {
			if cells[i].Cnt == 0 {
				out = append(out, math.NaN())
				continue
			}
			out = append(out, cells[i].Sum/float64(cells[i].Cnt))
		}
	case StdDev:
		for i := range cells {
			n := cells[i].Cnt
			if n == 0 {
				out = append(out, math.NaN())
				continue
			}
			nf := float64(n)
			mean := cells[i].Sum / nf
			v := cells[i].SumSq/nf - mean*mean
			if v < 0 {
				v = 0
			}
			out = append(out, math.Sqrt(v))
		}
	default:
		panic(fmt.Sprintf("agg: FinalizeCells on %v", f))
	}
	return out
}

// CellAt exports the row's scalar state (for checkpoints).
func (s *Store) CellAt(row int32) Cell {
	c := Cell{Cnt: s.cnt[row]}
	switch s.kind {
	case storeMin:
		c.Min = s.min[row]
	case storeMax:
		c.Max = s.max[row]
	case storeSum:
		c.Sum = s.sum[row]
	case storeSumSq:
		c.Sum = s.sum[row]
		c.SumSq = s.sumsq[row]
	}
	return c
}

// SetCellAt overwrites the row's scalar state, marking it occupied when
// the cell is non-empty (checkpoint restore).
func (s *Store) SetCellAt(row int32, c Cell) {
	s.cnt[row] = c.Cnt
	switch s.kind {
	case storeMin:
		s.min[row] = c.Min
	case storeMax:
		s.max[row] = c.Max
	case storeSum:
		s.sum[row] = c.Sum
	case storeSumSq:
		s.sum[row] = c.Sum
		s.sumsq[row] = c.SumSq
	}
	if c.Cnt > 0 {
		s.occ[row>>6] |= 1 << (uint(row) & 63)
	}
}

// RawAt returns the row's raw-value buffer (holistic stores only; nil
// otherwise). The slice aliases store memory — copy before retaining.
func (s *Store) RawAt(row int32) []float64 {
	if s.kind != storeRaw {
		return nil
	}
	return s.raw[row]
}

// SetRawAt replaces the row's raw-value buffer with a copy of vs
// (checkpoint restore; no-op for non-holistic stores).
func (s *Store) SetRawAt(row int32, vs []float64) {
	if s.kind != storeRaw {
		return
	}
	s.raw[row] = append(s.raw[row][:0], vs...)
	if len(vs) > 0 {
		s.occ[row>>6] |= 1 << (uint(row) & 63)
	}
}

// SketchAt serializes the row's sketch state (sketch-backed stores only;
// nil for other kinds and for rows without a live sketch). The wire
// forms (internal/sketch/marshal.go) persist RNG state, so a restored
// sketch resumes deterministically.
func (s *Store) SketchAt(row int32) ([]byte, error) {
	switch s.kind {
	case storeQuant:
		if q := s.qs[row]; q != nil && !q.Empty() {
			return q.MarshalBinary()
		}
	case storeHLL:
		if h := s.hs[row]; h != nil && !h.Empty() {
			return h.MarshalBinary()
		}
	case storeTopK:
		if t := s.ts[row]; t != nil && !t.Empty() {
			return t.MarshalBinary()
		}
	}
	return nil, nil
}

// SetSketchAt replaces the row's sketch state from wire bytes
// (checkpoint restore; no-op for non-sketch stores and empty payloads).
// The decoded sketch must match the store's construction configuration —
// merging differently-configured sketches would silently skew estimates
// (HLL even refuses), so a mismatch rejects the snapshot here, before
// any merge can see it.
func (s *Store) SetSketchAt(row int32, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	switch s.kind {
	case storeQuant:
		q := s.qat(row)
		if err := q.UnmarshalBinary(data); err != nil {
			return err
		}
		if q.K() != s.quantK {
			return fmt.Errorf("agg: sketch state has k=%d, store built with k=%d", q.K(), s.quantK)
		}
	case storeHLL:
		h := s.hat(row)
		if err := h.UnmarshalBinary(data); err != nil {
			return err
		}
		if h.P() != s.hllP {
			return fmt.Errorf("agg: sketch state has p=%d, store built with p=%d", h.P(), s.hllP)
		}
	case storeTopK:
		t := s.tat(row)
		if err := t.UnmarshalBinary(data); err != nil {
			return err
		}
		if t.Cap() != s.topkCap {
			return fmt.Errorf("agg: sketch state has cap=%d, store built with cap=%d", t.Cap(), s.topkCap)
		}
	default:
		return nil
	}
	s.occ[row>>6] |= 1 << (uint(row) & 63)
	return nil
}
