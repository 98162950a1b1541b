package sketch

import (
	"fmt"
	"math"
)

// HLL is a HyperLogLog cardinality sketch (Flajolet et al.): 2^p
// single-byte registers holding the maximum leading-zero rank observed
// per bucket. Like Quantile, it is mergeable — the merge of two sketches
// is the register-wise maximum — which makes COUNT(DISTINCT x), a
// holistic aggregate in the Gray et al. taxonomy, algebraic and therefore
// shareable under the optimizer's "partitioned by" semantics (the same
// Section III-A future-work extension Quantile provides for rank
// functions). The standard error is ≈ 1.04/√(2^p).
type HLL struct {
	p    int
	regs []uint8
	n    int64 // items added, for Empty/Count bookkeeping (not distinct!)
}

// DefaultP is the default precision: 2^11 registers, ≈ 2.3% standard
// error, 2 KiB per sketch.
const DefaultP = 11

// NewHLL returns an empty sketch with 2^p registers (p clamped to
// [4, 18]).
func NewHLL(p int) *HLL {
	if p < 4 {
		p = 4
	}
	if p > 18 {
		p = 18
	}
	return &HLL{p: p, regs: make([]uint8, 1<<p)}
}

// P returns the precision the sketch was built with.
func (h *HLL) P() int { return h.p }

// Count returns the number of items added (with multiplicity).
func (h *HLL) Count() int64 { return h.n }

// Empty reports whether the sketch has absorbed no input.
func (h *HLL) Empty() bool { return h.n == 0 }

// Reset clears the sketch for reuse.
func (h *HLL) Reset() {
	for i := range h.regs {
		h.regs[i] = 0
	}
	h.n = 0
}

// splitmix64 is the finalizer-quality hash used for bucket assignment.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add inserts one value. Values are hashed from their float64 bit
// pattern, so 1.0 and 1 are the same item but +0 and -0 are not
// normalized away; callers wanting integer identity should pass integral
// floats (the event model's values).
func (h *HLL) Add(v float64) {
	h.n++
	x := splitmix64(math.Float64bits(v))
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // low bits, with a guard so rank ≤ 64-p
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Merge folds other into h. Both sketches must share the same precision.
func (h *HLL) Merge(other *HLL) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if other.p != h.p {
		return fmt.Errorf("sketch: HLL precision mismatch %d vs %d", h.p, other.p)
	}
	for i, r := range other.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	h.n += other.n
	return nil
}

// Estimate returns the approximate number of distinct values added.
func (h *HLL) Estimate() float64 {
	if h.n == 0 {
		return 0
	}
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	// Small-range correction: linear counting while registers are sparse.
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}
