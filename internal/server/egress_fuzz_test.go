package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// refRow is the per-row reference of FuzzAppendRowsNDJSON: ResultRow's
// JSON shape through encoding/json, with the value boxed so that a
// non-finite one — which json.Marshal rejects and the stream renders as
// null — can be nil.
type refRow struct {
	Seq   int64  `json:"seq"`
	Range int64  `json:"range"`
	Slide int64  `json:"slide"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Key   uint64 `json:"key"`
	Value any    `json:"value"`
}

func refRowsNDJSON(t *testing.T, rows []ResultRow) []byte {
	var out []byte
	for _, r := range rows {
		ref := refRow{Seq: r.Seq, Range: r.Range, Slide: r.Slide, Start: r.Start, End: r.End, Key: r.Key}
		if !math.IsNaN(r.Value) && !math.IsInf(r.Value, 0) {
			ref.Value = r.Value
		}
		line, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// FuzzAppendRowsNDJSON pins the stream's run-native encoder to the
// concatenation of per-row json.Marshal output, for every split of
// eight rows into runs. The rows grow from the fuzzed base row with
// seq, key and value moving on every row; each of the 128 splits cuts
// them into runs, and at a cut before row i+1 nibble i of shape says
// which of range, slide, start and end change — possibly none, so
// adjacent runs with equal headers are covered too.
func FuzzAppendRowsNDJSON(f *testing.F) {
	const minInt, maxInt, maxUint = math.MinInt64, math.MaxInt64, math.MaxUint64
	for _, shape := range []uint32{
		0,                                              // one eight-row run
		0xffffffff,                                     // single-row runs
		0x00010000, 0x00020000, 0x00040000, 0x00080000, // a run boundary on each field alone
		0x10305070,
	} {
		f.Add(int64(41233), int64(8), int64(4), int64(16), int64(24), uint64(4095), 42.0, shape)
	}
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		1<<53 - 1, -(1<<53 - 1), 1 << 53, 1e21, 5e-324, 0.1, -2.5,
	} {
		f.Add(int64(0), int64(2), int64(2), int64(0), int64(2), uint64(7), v, uint32(0x00001100))
	}
	// Sequence numbers whose eight rows carry into a new digit, or end
	// at or run past MaxInt64, where the counted head gives way to one
	// rendered per row.
	for _, seq := range []int64{5, 95, 99999995, 999999999999999995, maxInt - 7, maxInt - 6, -4} {
		f.Add(seq, int64(8), int64(4), int64(16), int64(24), uint64(9), 2.0, uint32(0x10305070))
	}
	// The extremes in every integer slot.
	for slot := 0; slot < 6; slot++ {
		for _, x := range []int64{minInt, maxInt} {
			in := [5]int64{1, 8, 4, 16, 24}
			key := uint64(3)
			if slot < 5 {
				in[slot] = x
			} else {
				key = maxUint
			}
			f.Add(in[0], in[1], in[2], in[3], in[4], key, 1.0, uint32(0x01000010))
		}
	}
	f.Fuzz(func(t *testing.T, seq, rng, slide, start, end int64, key uint64, value float64, shape uint32) {
		for split := 0; split < 1<<7; split++ {
			chunk := runChunk{firstSeq: seq}
			rows := make([]ResultRow, 8)
			row := ResultRow{Seq: seq, Range: rng, Slide: slide, Start: start, End: end, Key: key, Value: value}
			for i := range rows {
				if i == 0 || split>>(i-1)&1 == 1 {
					if i > 0 {
						step := shape >> (4 * (i - 1))
						row.Range += int64(step & 1)
						row.Slide -= int64(step >> 1 & 1)
						row.Start += int64(step>>2&1) * 1000
						row.End ^= int64(step >> 3 & 1)
					}
					chunk.runs = append(chunk.runs, chunkRun{rng: row.Range, slide: row.Slide, start: row.Start, end: row.End})
				}
				chunk.runs[len(chunk.runs)-1].n++
				chunk.keys, chunk.vals = append(chunk.keys, row.Key), append(chunk.vals, row.Value)
				rows[i] = row
				row.Seq++
				row.Key = row.Key*31 + 1
				row.Value = -row.Value * 1.5
			}
			want := refRowsNDJSON(t, rows)
			if got := chunk.appendJSON(nil, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("split %07b, run encoder:\n%s\nper-row json.Marshal:\n%s", split, got, want)
			}
			// The chunk's row form is the rows it was built from (NaN
			// compares by bits).
			back := chunk.appendRows(nil)
			for i := range back {
				a, b := back[i], rows[i]
				if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
					t.Fatalf("split %07b: row %d value %v, want %v", split, i, a.Value, b.Value)
				}
				if a.Value, b.Value = 0, 0; a != b {
					t.Fatalf("split %07b: row %d materialises as %+v, want %+v", split, i, back[i], rows[i])
				}
			}
		}
	})
}
