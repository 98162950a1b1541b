package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"factorwindows/internal/stream"
)

// moduloRing is the per-row ring the segment-copy ring replaced: every
// row placed and read through its own head arithmetic and modulo. It is
// the oracle of TestRingSegmentsMatchModulo.
type moduloRing struct {
	capacity int
	rows     []ResultRow
	head     int
	firstSeq int64
	nextSeq  int64
	evicted  int64
}

func (g *moduloRing) append(res stream.Result) {
	row := ResultRow{Seq: g.nextSeq, Range: res.W.Range, Slide: res.W.Slide,
		Start: res.Start, End: res.End, Key: res.Key, Value: res.Value}
	g.nextSeq++
	if len(g.rows) < g.capacity {
		g.rows = append(g.rows, row)
		return
	}
	g.rows[g.head] = row
	g.head = (g.head + 1) % g.capacity
	g.firstSeq++
	g.evicted++
}

func (g *moduloRing) readAfter(after int64, limit int) (rows []ResultRow, missed int64) {
	start := after + 1
	if start < g.firstSeq {
		missed = g.firstSeq - start
		start = g.firstSeq
	}
	n := g.nextSeq - start
	if n <= 0 {
		return nil, missed
	}
	if limit > 0 && n > int64(limit) {
		n = int64(limit)
	}
	for i := int64(0); i < n; i++ {
		rows = append(rows, g.rows[(g.head+int(start-g.firstSeq+i))%len(g.rows)])
	}
	return rows, missed
}

// TestRingSegmentsMatchModulo drives the ring and the per-row-modulo
// oracle with the same random append / appendBatch / read sequences —
// batches larger than the ring included — and requires identical rows,
// missed counts, sequence windows and eviction counts throughout, plus
// an identical exported state at the end.
func TestRingSegmentsMatchModulo(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := newRing(capacity)
				want := &moduloRing{capacity: capacity}
				next := 0
				result := func() stream.Result {
					next++
					return stream.Result{Start: int64(next), End: int64(next + 4), Key: uint64(next % 13), Value: float64(next) / 2}
				}
				var buf []ResultRow
				for step := 0; step < 3000; step++ {
					switch rng.Intn(4) {
					case 0:
						r := result()
						g.append(r)
						want.append(r)
					case 1:
						// Mostly small batches; now and then one up to three
						// times the ring.
						n := rng.Intn(capacity/4 + 2)
						if rng.Intn(8) == 0 {
							n = rng.Intn(3*capacity + 2)
						}
						rs := make([]stream.Result, n)
						for i := range rs {
							rs[i] = result()
							want.append(rs[i])
						}
						g.appendBatch(rs)
					default:
						after := want.firstSeq - 3 + rng.Int63n(want.nextSeq-want.firstSeq+6)
						limit := rng.Intn(capacity+3) - 1
						wantRows, wantMissed := want.readAfter(after, limit)
						var rows []ResultRow
						var missed int64
						if rng.Intn(2) == 0 {
							rows, missed = g.readAfter(after, limit)
						} else {
							buf, missed = g.readAfterInto(after, limit, buf[:0])
							rows = buf
						}
						if missed != wantMissed || !slices.Equal(rows, wantRows) {
							t.Fatalf("step %d: readAfter(%d, %d) = %d rows from seq %v, missed %d; oracle %d rows, missed %d",
								step, after, limit, len(rows), firstSeqOf(rows), missed, len(wantRows), wantMissed)
						}
					}
					first, nextSeq := g.window()
					delivered, evicted := g.counters()
					if first != want.firstSeq || nextSeq != want.nextSeq || delivered != want.nextSeq || evicted != want.evicted {
						t.Fatalf("step %d: window [%d,%d) evicted %d; oracle [%d,%d) evicted %d",
							step, first, nextSeq, evicted, want.firstSeq, want.nextSeq, want.evicted)
					}
				}
				all, _ := want.readAfter(-1, 0)
				if st := g.exportState("q"); !slices.Equal(st.Rows, all) {
					t.Fatalf("exportState holds %d rows from seq %v; oracle %d", len(st.Rows), firstSeqOf(st.Rows), len(all))
				}
			})
		}
	}
}

func firstSeqOf(rows []ResultRow) any {
	if len(rows) == 0 {
		return "none"
	}
	return rows[0].Seq
}
