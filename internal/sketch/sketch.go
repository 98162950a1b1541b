// Package sketch implements a mergeable quantile sketch in the KLL style
// (Karnin, Lang, Liberty): a hierarchy of fixed-capacity compactors in
// which level h holds items of weight 2^h. Compaction sorts a full level
// and promotes every other item (random offset) to the next level,
// doubling its weight; pairs of sketches merge by concatenating levels and
// recompacting.
//
// The sketch is the substrate for the library's approximate-quantile
// extension (the PERCENTILE aggregate, held in internal/agg.Store side
// tables and executed by internal/engine): because sketches merge,
// holistic rank functions such as MEDIAN become algebraic in the Gray et
// al. taxonomy (Section III-A of the Factor Windows paper), so the
// optimizer's "partitioned by" sharing — including factor windows —
// applies to them.
// The paper lists better support for holistic aggregates as future work;
// this package is that extension.
//
// Space is O(k · log(n/k)) for n inserted items, and the rank error is
// O(n · log(n/k) / k) in the worst case for this simplified variant —
// tests pin the observed error well below that. Determinism: each sketch
// draws compaction offsets from its own xorshift generator seeded at
// construction, so a fixed insertion/merge order reproduces exactly.
package sketch

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Quantile is a mergeable quantile sketch. The zero value is not ready to
// use; construct with New.
type Quantile struct {
	k      int
	n      int64
	levels [][]float64
	rng    uint64
	min    float64
	max    float64

	scratch []item // Query's weighted merge view, recycled; not state
}

// DefaultK is a practical default compactor capacity: about 0.5% observed
// median rank error at a few thousand items in the package benchmarks.
const DefaultK = 200

// New returns an empty sketch with per-level capacity k (minimum 8).
func New(k int) *Quantile {
	if k < 8 {
		k = 8
	}
	return &Quantile{
		k:   k,
		rng: seed(k),
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// seed is the compaction generator's starting state for capacity k.
func seed(k int) uint64 { return 0x9e3779b97f4a7c15 ^ uint64(k) }

// K returns the compactor capacity the sketch was built with.
func (q *Quantile) K() int { return q.k }

// Count returns the number of items added (across merges).
func (q *Quantile) Count() int64 { return q.n }

// Empty reports whether the sketch holds no items.
func (q *Quantile) Empty() bool { return q.n == 0 }

// Reset clears the sketch for reuse, keeping allocated buffers. The
// reset sketch is indistinguishable from New(k): the generator restarts
// at its seed and the levels are dropped (their buffers parked for
// addLevel), so what a recycled sketch answers and marshals to depends
// only on what it is fed afterwards, never on its earlier tenants.
func (q *Quantile) Reset() {
	q.n = 0
	q.levels = q.levels[:0]
	q.rng = seed(q.k)
	q.min = math.Inf(1)
	q.max = math.Inf(-1)
}

// addLevel appends an empty level, reusing a buffer Reset parked in the
// levels slice's spare capacity when there is one.
func (q *Quantile) addLevel() {
	if n := len(q.levels); n < cap(q.levels) {
		if parked := q.levels[:n+1][n]; parked != nil {
			q.levels = append(q.levels, parked[:0])
			return
		}
	}
	q.levels = append(q.levels, make([]float64, 0, q.k))
}

// Add inserts one item.
func (q *Quantile) Add(v float64) {
	if len(q.levels) == 0 {
		q.addLevel()
	}
	q.levels[0] = append(q.levels[0], v)
	q.n++
	if v < q.min {
		q.min = v
	}
	if v > q.max {
		q.max = v
	}
	if len(q.levels[0]) >= q.cap(0) {
		q.compact(0)
	}
}

// cap returns the capacity of level h. Every level gets the full budget k
// (the Manku–Rajagopalan–Lindsay layout rather than KLL's geometric
// decay): space grows to O(k·log(n/k)) but each level compacts k/2 items
// at a time, which in practice keeps the observed rank error near 1/k
// instead of log(n/k)/k.
func (q *Quantile) cap(int) int { return q.k }

// compact halves level h, promoting every other item to level h+1. An odd
// item stays at level h so total weight is preserved exactly.
func (q *Quantile) compact(h int) {
	buf := q.levels[h]
	if len(buf) < 2 {
		return
	}
	sort.Float64s(buf)
	if h+1 >= len(q.levels) {
		q.addLevel()
	}
	offset := int(q.next() & 1)
	keep := buf[:0]
	if len(buf)%2 == 1 {
		// Keep the last (odd) item at this level; compact the even prefix.
		keep = append(keep, buf[len(buf)-1])
		buf = buf[:len(buf)-1]
	}
	for i := offset; i < len(buf); i += 2 {
		q.levels[h+1] = append(q.levels[h+1], buf[i])
	}
	q.levels[h] = keep
	if len(q.levels[h+1]) >= q.cap(h+1) {
		q.compact(h + 1)
	}
}

// next is a xorshift64* step.
func (q *Quantile) next() uint64 {
	x := q.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	q.rng = x
	return x * 0x2545f4914f6cdd1d
}

// Merge folds other into q. other is not modified.
func (q *Quantile) Merge(other *Quantile) {
	if other == nil || other.n == 0 {
		return
	}
	for len(q.levels) < len(other.levels) {
		q.addLevel()
	}
	for h, buf := range other.levels {
		q.levels[h] = append(q.levels[h], buf...)
	}
	q.n += other.n
	if other.min < q.min {
		q.min = other.min
	}
	if other.max > q.max {
		q.max = other.max
	}
	for h := 0; h < len(q.levels); h++ {
		if len(q.levels[h]) >= q.cap(h) {
			q.compact(h)
		}
	}
}

// item pairs a retained value with its weight for queries.
type item struct {
	v float64
	w int64
}

func (q *Quantile) items() []item {
	out := q.scratch[:0]
	for h, buf := range q.levels {
		w := int64(1) << uint(h)
		for _, v := range buf {
			out = append(out, item{v, w})
		}
	}
	// slices.SortFunc, unlike sort.Slice, sorts without boxing the
	// comparator through reflection, keeping finalization heap-quiet.
	slices.SortFunc(out, func(a, b item) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	q.scratch = out
	return out
}

// Query returns the estimated phi-quantile (phi in [0, 1]; 0.5 is the
// median). It returns NaN on an empty sketch.
func (q *Quantile) Query(phi float64) float64 {
	if q.n == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return q.min
	}
	if phi >= 1 {
		return q.max
	}
	items := q.items()
	target := int64(math.Ceil(phi * float64(q.n)))
	var cum int64
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return q.max
}

// Rank returns the estimated number of items ≤ v.
func (q *Quantile) Rank(v float64) int64 {
	var cum int64
	for h, buf := range q.levels {
		w := int64(1) << uint(h)
		for _, x := range buf {
			if x <= v {
				cum += w
			}
		}
	}
	return cum
}

// Min and Max return the exact extremes seen (NaN when empty).
func (q *Quantile) Min() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	return q.min
}

// Max returns the exact maximum seen (NaN when empty).
func (q *Quantile) Max() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	return q.max
}

// Retained returns the number of values currently stored — the sketch's
// memory footprint in items.
func (q *Quantile) Retained() int {
	t := 0
	for _, buf := range q.levels {
		t += len(buf)
	}
	return t
}

// weight returns the total weight across levels; it must equal Count.
// Exposed for tests via Invariant.
func (q *Quantile) weight() int64 {
	var t int64
	for h, buf := range q.levels {
		t += int64(len(buf)) << uint(h)
	}
	return t
}

// Invariant verifies internal consistency (weight conservation); tests
// call it after every mutation sequence.
func (q *Quantile) Invariant() error {
	if w := q.weight(); w != q.n {
		return fmt.Errorf("sketch: total weight %d != count %d", w, q.n)
	}
	return nil
}
