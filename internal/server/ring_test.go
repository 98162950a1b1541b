package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// rowRing is the row-form ring the columnar one replaced, kept as the
// oracle of TestRingRunsMatchRows (the reorder heap's precedent): a
// circular []ResultRow with every row carrying its own sequence number
// and header, 56 bytes apiece. Locking and the waiter channel are gone;
// the buffer logic is what shipped.
type rowRing struct {
	capacity int
	rows     []ResultRow
	head     int
	firstSeq int64
	nextSeq  int64
	evicted  int64
}

func (g *rowRing) appendBatch(rs []stream.Result) {
	seq := g.nextSeq
	g.nextSeq += int64(len(rs))
	fill := func(dst []ResultRow, rs []stream.Result, seq int64) {
		for i, r := range rs {
			dst[i] = ResultRow{Seq: seq + int64(i), Range: r.W.Range, Slide: r.W.Slide,
				Start: r.Start, End: r.End, Key: r.Key, Value: r.Value}
		}
	}
	if room := g.capacity - len(g.rows); room > 0 {
		n := min(room, len(rs))
		at := len(g.rows)
		g.rows = slices.Grow(g.rows, n)[:at+n]
		fill(g.rows[at:], rs[:n], seq)
		rs, seq = rs[n:], seq+int64(n)
	}
	if over := len(rs); over > 0 {
		if skip := over - g.capacity; skip > 0 {
			g.head = (g.head + skip) % g.capacity
			rs, seq = rs[skip:], seq+int64(skip)
		}
		n := min(len(rs), g.capacity-g.head)
		fill(g.rows[g.head:g.head+n], rs[:n], seq)
		fill(g.rows[:len(rs)-n], rs[n:], seq+int64(n))
		if g.head += len(rs); g.head >= g.capacity {
			g.head -= g.capacity
		}
		g.firstSeq += int64(over)
		g.evicted += int64(over)
	}
}

func (g *rowRing) readAfter(after int64, limit int) (rows []ResultRow, missed int64) {
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
	return g.appendRun(make([]ResultRow, 0, n), int(start-g.firstSeq), int(n)), missed
}

func (g *rowRing) appendRun(dst []ResultRow, off, n int) []ResultRow {
	if off += g.head; off >= len(g.rows) {
		off -= len(g.rows)
	}
	k := min(n, len(g.rows)-off)
	dst = append(dst, g.rows[off:off+k]...)
	return append(dst, g.rows[:n-k]...)
}

func (g *rowRing) exportState(id string) ringState {
	st := ringState{ID: id, FirstSeq: g.firstSeq, NextSeq: g.nextSeq, Evicted: g.evicted}
	st.Rows = g.appendRun(make([]ResultRow, 0, len(g.rows)), 0, len(g.rows))
	return st
}

func (g *rowRing) importState(st ringState) {
	rows := st.Rows
	first := st.FirstSeq
	if len(rows) > g.capacity {
		cut := len(rows) - g.capacity
		rows = rows[cut:]
		first += int64(cut)
	}
	g.rows = append(g.rows[:0], rows...)
	g.head = 0
	g.firstSeq = first
	g.nextSeq = st.NextSeq
	g.evicted = st.Evicted
}

// TestRingRunsMatchRows drives the columnar ring and the row-ring
// oracle with the same seeded schedules — single rows, runs of one row
// up to three times the ring, headers interleaved and repeated so that
// adjacent runs do and do not coalesce, reads at arbitrary cursors and
// limits through both read paths, and now and then an exportState →
// importState hop into a ring of another size — and requires identical rows
// (sequence numbers included), missed counts, sequence windows and
// eviction counts throughout.
func TestRingRunsMatchRows(t *testing.T) {
	sameHeader := func(a, b chunkRun) bool {
		return a.rng == b.rng && a.slide == b.slide && a.start == b.start && a.end == b.end
	}
	for _, base := range []int{1, 2, 7, 64, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", base, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				capacity := base
				g := newRing(capacity)
				want := &rowRing{capacity: capacity}
				next := 0
				header := func() stream.Run {
					// Five instances of two windows, so a header often repeats
					// the one before it.
					w := window.Tumbling(int64(4 << rng.Intn(2)))
					start := int64(rng.Intn(3)) * w.Range
					return stream.Run{W: w, Start: start, End: start + w.Range}
				}
				var chunk runChunk
				for step := 0; step < 3000; step++ {
					switch op := rng.Intn(16); {
					case op < 3:
						next++
						h := header()
						r := stream.Result{W: h.W, Start: h.Start, End: h.End, Key: uint64(next % 13), Value: float64(next) / 2}
						g.append(r)
						want.appendBatch([]stream.Result{r})
					case op < 8:
						// Mostly short runs; now and then one up to three times
						// the ring.
						n := 1 + rng.Intn(capacity/4+2)
						if rng.Intn(8) == 0 {
							n = 1 + rng.Intn(3*capacity)
						}
						run := header()
						rs := make([]stream.Result, n)
						for i := range rs {
							next++
							run.Keys = append(run.Keys, uint64(next%13))
							run.Vals = append(run.Vals, float64(next)/2)
							rs[i] = stream.Result{W: run.W, Start: run.Start, End: run.End, Key: run.Keys[i], Value: run.Vals[i]}
						}
						g.appendRun(run)
						want.appendBatch(rs)
					case op < 15:
						after := want.firstSeq - 3 + rng.Int63n(want.nextSeq-want.firstSeq+6)
						limit := rng.Intn(capacity+3) - 1
						wantRows, wantMissed := want.readAfter(after, limit)
						var rows []ResultRow
						var missed int64
						if rng.Intn(2) == 0 {
							rows, missed = g.readAfter(after, limit)
						} else {
							missed = g.readRuns(after, limit, &chunk)
							rows = chunk.appendRows(nil)
							for i, r := range chunk.runs {
								if r.n <= 0 || i > 0 && sameHeader(r, chunk.runs[i-1]) {
									t.Fatalf("step %d: chunk run %d of %+v is empty or repeats its predecessor's header", step, i, chunk.runs)
								}
							}
						}
						if missed != wantMissed || !slices.Equal(rows, wantRows) {
							t.Fatalf("step %d: read(%d, %d) = %d rows from seq %v, missed %d; oracle %d rows from seq %v, missed %d",
								step, after, limit, len(rows), firstSeqOf(rows), missed, len(wantRows), firstSeqOf(wantRows), wantMissed)
						}
					default:
						// A restart under another ResultBuffer, usually a
						// smaller one than the rows exported.
						capacity = base - rng.Intn(base/2+1)
						st, wantSt := g.exportState("q"), want.exportState("q")
						if !slices.Equal(st.Rows, wantSt.Rows) || st.FirstSeq != wantSt.FirstSeq || st.NextSeq != wantSt.NextSeq || st.Evicted != wantSt.Evicted {
							t.Fatalf("step %d: exportState holds %d rows from seq %v; oracle %d from seq %v",
								step, len(st.Rows), firstSeqOf(st.Rows), len(wantSt.Rows), firstSeqOf(wantSt.Rows))
						}
						g, want = newRing(capacity), &rowRing{capacity: capacity}
						g.importState(st)
						want.importState(wantSt)
					}
					first, nextSeq := g.window()
					delivered, evicted := g.counters()
					if first != want.firstSeq || nextSeq != want.nextSeq || delivered != want.nextSeq || evicted != want.evicted {
						t.Fatalf("step %d: window [%d,%d) evicted %d; oracle [%d,%d) evicted %d",
							step, first, nextSeq, evicted, want.firstSeq, want.nextSeq, want.evicted)
					}
					if rows, runs, bytes := g.usage(); rows != len(want.rows) || runs > rows || bytes > int64(capacity)*56 {
						t.Fatalf("step %d: ring of %d holds %d rows (oracle %d) in %d runs and %d bytes",
							step, capacity, rows, len(want.rows), runs, bytes)
					}
				}
			})
		}
	}
}

// TestRingBytesPerRow pins what a buffered row costs: never more than
// the row ring's 56 bytes, even when every run is a single row, and
// barely more than the 16 bytes of its key and value when a window
// instance fires hundreds of keys.
func TestRingBytesPerRow(t *testing.T) {
	const capacity = 1 << 14
	for _, tc := range []struct {
		name    string
		keys    int
		ceiling float64
	}{
		{"single-key", 1, 56},
		{"512-key", 512, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newRing(capacity)
			run := stream.Run{W: window.Tumbling(8), Keys: make([]uint64, tc.keys), Vals: make([]float64, tc.keys)}
			for n := 0; n < 3*capacity; n += tc.keys {
				run.Start, run.End = run.Start+8, run.End+8
				g.appendRun(run)
			}
			rows, runs, bytes := g.usage()
			if rows != capacity || runs < capacity/tc.keys {
				t.Fatalf("full ring holds %d rows in %d runs", rows, runs)
			}
			if perRow := float64(bytes) / float64(rows); perRow > tc.ceiling {
				t.Fatalf("%d bytes for %d rows in %d runs: %.2f B/row, want at most %v", bytes, rows, runs, perRow, tc.ceiling)
			}
		})
	}
}

func firstSeqOf(rows []ResultRow) any {
	if len(rows) == 0 {
		return "none"
	}
	return rows[0].Seq
}
