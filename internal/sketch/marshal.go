package sketch

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Binary serialization for the sketches, used by the executors'
// checkpointing and state migration (internal/agg.Store's SketchAt /
// SetSketchAt). The wire structs keep the
// on-the-wire shape explicit and decoupled from the in-memory layout.

type quantileWire struct {
	K      int
	N      int64
	RNG    uint64
	Min    float64
	Max    float64
	Levels [][]float64
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (q *Quantile) MarshalBinary() ([]byte, error) {
	w := quantileWire{K: q.k, N: q.n, RNG: q.rng, Min: q.min, Max: q.max, Levels: q.levels}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("sketch: encoding quantile: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's contents.
func (q *Quantile) UnmarshalBinary(data []byte) error {
	var w quantileWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("sketch: decoding quantile: %w", err)
	}
	if w.K < 8 || w.N < 0 {
		return fmt.Errorf("sketch: corrupt quantile snapshot (k=%d, n=%d)", w.K, w.N)
	}
	var total int64
	for h, buf := range w.Levels {
		total += int64(len(buf)) << uint(h)
	}
	if total != w.N {
		return fmt.Errorf("sketch: corrupt quantile snapshot (weight %d != count %d)", total, w.N)
	}
	q.k, q.n, q.rng, q.min, q.max, q.levels = w.K, w.N, w.RNG, w.Min, w.Max, w.Levels
	return nil
}

type topkWire struct {
	Cap    int
	N      int64
	Vals   []float64
	Counts []int64
}

// MarshalBinary implements encoding.BinaryMarshaler. Entries are
// serialized in rank order so equal summaries produce identical bytes
// regardless of map iteration history.
func (t *TopK) MarshalBinary() ([]byte, error) {
	t.sortOrder()
	w := topkWire{Cap: t.cap, N: t.n}
	for _, i := range t.order {
		w.Vals = append(w.Vals, t.vals[i])
		w.Counts = append(w.Counts, t.counts[i])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("sketch: encoding TopK: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's contents.
func (t *TopK) UnmarshalBinary(data []byte) error {
	var w topkWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("sketch: decoding TopK: %w", err)
	}
	if w.Cap < 1 || w.N < 0 || len(w.Vals) != len(w.Counts) || len(w.Vals) > w.Cap {
		return fmt.Errorf("sketch: corrupt TopK snapshot (cap=%d, entries=%d/%d)",
			w.Cap, len(w.Vals), len(w.Counts))
	}
	idx := make(map[float64]int, len(w.Vals))
	var sum int64
	for i, v := range w.Vals {
		if w.Counts[i] <= 0 {
			return fmt.Errorf("sketch: corrupt TopK snapshot (counter %d)", w.Counts[i])
		}
		if _, dup := idx[v]; dup {
			return fmt.Errorf("sketch: corrupt TopK snapshot (duplicate value %v)", v)
		}
		idx[v] = i
		sum += w.Counts[i]
	}
	if sum > w.N {
		return fmt.Errorf("sketch: corrupt TopK snapshot (weight %d > count %d)", sum, w.N)
	}
	t.cap, t.n, t.vals, t.counts, t.idx = w.Cap, w.N, w.Vals, w.Counts, idx
	return nil
}

type hllWire struct {
	P    int
	N    int64
	Regs []uint8
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *HLL) MarshalBinary() ([]byte, error) {
	w := hllWire{P: h.p, N: h.n, Regs: h.regs}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("sketch: encoding HLL: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's contents.
func (h *HLL) UnmarshalBinary(data []byte) error {
	var w hllWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("sketch: decoding HLL: %w", err)
	}
	if w.P < 4 || w.P > 18 || len(w.Regs) != 1<<w.P || w.N < 0 {
		return fmt.Errorf("sketch: corrupt HLL snapshot (p=%d, regs=%d)", w.P, len(w.Regs))
	}
	h.p, h.n, h.regs = w.P, w.N, w.Regs
	return nil
}
