package server

import (
	"sync"

	"factorwindows/internal/stream"
)

// ResultRow is one delivered window-aggregate result, tagged with a
// per-query sequence number so clients can resume reads with a cursor.
// It is the row form of the cursor API and of snapshots; the ring and
// the stream readers hold results as runs (see ring, runChunk).
type ResultRow struct {
	Seq   int64   `json:"seq"`
	Range int64   `json:"range"`
	Slide int64   `json:"slide"`
	Start int64   `json:"start"`
	End   int64   `json:"end"`
	Key   uint64  `json:"key"`
	Value float64 `json:"value"`
}

// runHdr is what the rows of one buffered run share. The run covers the
// sequence numbers from firstSeq up to the next header's firstSeq (the
// ring's nextSeq for the newest run).
type runHdr struct {
	firstSeq               int64
	rng, slide, start, end int64
}

// runHdrBytes is a header's size, for the ring's byte accounting.
const runHdrBytes = 40

// ring is one query's bounded result buffer: the last capacity rows,
// numbered by monotonically increasing sequence numbers, held the way
// the engine fires them — a circular key column and value column (16
// bytes a row) under a deque of run headers. Sequence numbers are
// implicit (row i past the oldest is firstSeq+i), adjacent runs with
// equal headers coalesce, and a header is popped when its last row is
// evicted; both the columns and the deque grow on demand and never past
// capacity entries, so the worst case — every run one row long — costs
// 56 bytes a row and a window instance with many keys barely over 16.
//
// Writers are the execution shards (serialized by the runner's sink
// lock, but a ring takes no dependency on that); readers are HTTP
// handlers. When the buffer is full the oldest rows are overwritten and
// counted as evicted (distinct from the server's "dropped" counter,
// which is events ingested with no live query) — result delivery must
// never block ingestion.
type ring struct {
	mu       sync.Mutex
	capacity int
	keys     []uint64 // circular once len reaches capacity; head is 0 before
	vals     []float64
	head     int   // index of the oldest row
	firstSeq int64 // sequence number of the oldest row
	nextSeq  int64

	hdrs    []runHdr // circular deque: hdrLen live headers, oldest at hdrHead
	hdrHead int
	hdrLen  int

	// evicted counts every row overwritten by a newer one, read or not:
	// a full ring evicts one row per row delivered, however promptly its
	// readers drain it. What a reader actually lost is the missed count
	// its read hands it.
	evicted int64
	wait    chan struct{} // closed on append, but only once fetched
	waited  bool          // a waiter fetched wait since its last rotation
	closed  bool
}

func newRing(capacity int) *ring {
	return &ring{capacity: capacity, wait: make(chan struct{})}
}

// append delivers one row: a one-row run over stack arrays.
func (g *ring) append(res stream.Result) {
	keys, vals := [1]uint64{res.Key}, [1]float64{res.Value}
	g.appendRun(stream.Run{W: res.W, Start: res.Start, End: res.End, Keys: keys[:], Vals: vals[:]})
}

// appendRun delivers one fired window instance under a single lock
// acquisition and a single waiter wakeup, so a 1000-key instance costs
// one lock, one header and two column copies. The columns land as
// contiguous segments: the tail of a ring still filling, then at most
// two stretches over the oldest rows (up to the end of the buffer, and
// from its start), with the sequence and eviction counters moved once
// per run. The run is copied; the caller keeps its columns.
func (g *ring) appendRun(r stream.Run) {
	if len(r.Keys) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	seq := g.nextSeq
	g.nextSeq += int64(len(r.Keys))
	keys, vals := r.Keys, r.Vals
	if room := g.capacity - len(g.keys); room > 0 {
		n := min(room, len(keys))
		at := len(g.keys)
		g.growRows(at + n)
		copy(g.keys[at:], keys[:n])
		copy(g.vals[at:], vals[:n])
		keys, vals = keys[n:], vals[n:]
	}
	if over := len(keys); over > 0 {
		// Each of these rows evicts the oldest one. Of a run larger than
		// the ring only the last capacity rows outlive the call; the
		// others would be overwritten before the lock is released.
		if skip := over - g.capacity; skip > 0 {
			g.head = (g.head + skip) % g.capacity
			keys, vals = keys[skip:], vals[skip:]
		}
		n := min(len(keys), g.capacity-g.head)
		copy(g.keys[g.head:], keys[:n])
		copy(g.keys, keys[n:])
		copy(g.vals[g.head:], vals[:n])
		copy(g.vals, vals[n:])
		if g.head += len(keys); g.head >= g.capacity {
			g.head -= g.capacity
		}
		g.firstSeq += int64(over)
		g.evicted += int64(over)
		g.popEvictedHeaders(seq)
	}
	g.pushHeader(runHdr{firstSeq: seq, rng: r.W.Range, slide: r.W.Slide, start: r.Start, end: r.End})
	g.wakeLocked()
}

// growRows extends the row columns to n rows (n ≤ capacity), doubling
// their capacity but never past the ring's: a full ring holds exactly
// capacity rows, with no growth slack.
func (g *ring) growRows(n int) {
	if n > cap(g.keys) {
		c := min(g.capacity, max(n, 2*cap(g.keys), 64))
		g.keys = append(make([]uint64, 0, c), g.keys...)
		g.vals = append(make([]float64, 0, c), g.vals...)
	}
	g.keys, g.vals = g.keys[:n], g.vals[:n]
}

// hdrAt returns the i-th oldest live header.
func (g *ring) hdrAt(i int) *runHdr {
	if i += g.hdrHead; i >= len(g.hdrs) {
		i -= len(g.hdrs)
	}
	return &g.hdrs[i]
}

// popEvictedHeaders drops the headers whose rows are all below
// firstSeq. upto is where the newest header's run ends. It runs before
// the appending run's header is pushed, so the deque never holds more
// headers than the ring holds rows.
func (g *ring) popEvictedHeaders(upto int64) {
	for g.hdrLen > 0 {
		end := upto
		if g.hdrLen > 1 {
			end = g.hdrAt(1).firstSeq
		}
		if end > g.firstSeq {
			return
		}
		if g.hdrHead++; g.hdrHead == len(g.hdrs) {
			g.hdrHead = 0
		}
		g.hdrLen--
	}
}

// pushHeader opens a run at h.firstSeq, unless the newest run has the
// same header: then the rows just appended simply extend it.
func (g *ring) pushHeader(h runHdr) {
	if g.hdrLen > 0 {
		if last := g.hdrAt(g.hdrLen - 1); last.rng == h.rng && last.slide == h.slide && last.start == h.start && last.end == h.end {
			return
		}
	}
	if g.hdrLen == len(g.hdrs) {
		grown := make([]runHdr, min(g.capacity, max(2*len(g.hdrs), 8)))
		for i := 0; i < g.hdrLen; i++ {
			grown[i] = *g.hdrAt(i)
		}
		g.hdrs, g.hdrHead = grown, 0
	}
	g.hdrLen++
	*g.hdrAt(g.hdrLen - 1) = h
}

// wakeLocked rotates the wait channel only when someone may be parked
// on it — with no stream readers attached, appends stay allocation-free.
func (g *ring) wakeLocked() {
	if g.waited {
		close(g.wait)
		g.wait = make(chan struct{})
		g.waited = false
	}
}

// chunkRun is one run of a runChunk: the shared header and how many of
// the chunk's rows it covers.
type chunkRun struct {
	rng, slide, start, end int64
	n                      int
}

// runChunk is a reader's copy of a contiguous stretch of a ring: the
// rows numbered firstSeq, firstSeq+1, … as runs over one key and one
// value column. Stream readers recycle one per connection, so a poll
// copies 16 bytes a row under the ring lock and allocates nothing.
type runChunk struct {
	firstSeq int64
	runs     []chunkRun
	keys     []uint64
	vals     []float64
}

// rows reports the chunk's row count.
func (c *runChunk) rows() int { return len(c.keys) }

// appendRows materialises the chunk as rows — the cursor API's and the
// snapshot's form.
func (c *runChunk) appendRows(dst []ResultRow) []ResultRow {
	at := 0
	for _, r := range c.runs {
		for end := at + r.n; at < end; at++ {
			dst = append(dst, ResultRow{
				Seq:   c.firstSeq + int64(at),
				Range: r.rng, Slide: r.slide, Start: r.start, End: r.end,
				Key: c.keys[at], Value: c.vals[at],
			})
		}
	}
	return dst
}

// readAfter returns up to limit rows with Seq > after (limit <= 0 means
// all) materialised as ResultRows, plus the number of requested rows
// lost to eviction.
func (g *ring) readAfter(after int64, limit int) (rows []ResultRow, missed int64) {
	var c runChunk
	if missed = g.readRuns(after, limit, &c); c.rows() == 0 {
		return nil, missed
	}
	return c.appendRows(make([]ResultRow, 0, c.rows())), missed
}

// readRuns replaces c's contents with up to limit rows with sequence
// numbers above after (limit <= 0 means all), as runs, and returns the
// number of requested rows lost to eviction. c.firstSeq is the first
// surviving requested sequence number even when c comes back empty (the
// next one to be delivered, for a cursor at or past the newest row).
func (g *ring) readRuns(after int64, limit int, c *runChunk) (missed int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.readRunsLocked(after, limit, c)
}

func (g *ring) readRunsLocked(after int64, limit int, c *runChunk) (missed int64) {
	start := g.nextSeq // after+1 would wrap for the largest cursor
	if after < g.nextSeq {
		start = after + 1
	}
	if start < g.firstSeq {
		missed = g.firstSeq - start
		start = g.firstSeq
	}
	c.firstSeq, c.runs, c.keys, c.vals = start, c.runs[:0], c.keys[:0], c.vals[:0]
	n := g.nextSeq - start
	if n <= 0 {
		return missed
	}
	if limit > 0 && n > int64(limit) {
		n = int64(limit)
	}
	// The columns: one copy up to the end of the buffer and one from its
	// start.
	off := g.head + int(start-g.firstSeq)
	if off >= len(g.keys) {
		off -= len(g.keys)
	}
	k := min(int(n), len(g.keys)-off)
	c.keys = append(append(c.keys, g.keys[off:off+k]...), g.keys[:int(n)-k]...)
	c.vals = append(append(c.vals, g.vals[off:off+k]...), g.vals[:int(n)-k]...)
	// The headers: binary search for the run holding start, then walk.
	lo, hi := 0, g.hdrLen-1
	for lo < hi {
		if mid := (lo + hi + 1) / 2; g.hdrAt(mid).firstSeq <= start {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	h := g.hdrAt(lo)
	for seq, end := start, start+n; seq < end; {
		run := chunkRun{rng: h.rng, slide: h.slide, start: h.start, end: h.end}
		upto := end
		if lo++; lo < g.hdrLen {
			if h = g.hdrAt(lo); h.firstSeq < end {
				upto = h.firstSeq
			}
		}
		run.n = int(upto - seq)
		c.runs = append(c.runs, run)
		seq = upto
	}
	return missed
}

// waitCh returns a channel closed on the next append or close. Fetch it
// before reading to avoid missing a wakeup.
func (g *ring) waitCh() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waited = true
	return g.wait
}

func (g *ring) isClosed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// closeRing wakes all waiters permanently; readers drain what remains.
// The wait channel stays closed, so every future waitCh is ready at once
// and append becomes a no-op.
func (g *ring) closeRing() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.wait)
	}
	g.mu.Unlock()
}

func (g *ring) counters() (delivered, evicted int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nextSeq, g.evicted
}

// usage reports what the ring holds and what holding it costs: buffered
// rows and runs, and the bytes of the columns and the header deque.
func (g *ring) usage() (rows, runs int, bytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.keys), g.hdrLen, int64(cap(g.keys)+cap(g.vals))*8 + int64(len(g.hdrs))*runHdrBytes
}

// window reports the ring's live sequence span [firstSeq, nextSeq):
// cursors below firstSeq have been evicted. The stream listener uses it
// to detect stale resume cursors at subscribe time.
func (g *ring) window() (firstSeq, nextSeq int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.firstSeq, g.nextSeq
}

// ringState is a ring's exported delivery state, carried inside durable
// snapshots: crash recovery promises byte-identical result streams, and
// those bytes include sequence numbers and eviction positions. It keeps
// the row form, so snapshots are the same bytes whatever the ring's
// layout.
type ringState struct {
	ID       string
	Rows     []ResultRow // oldest first
	FirstSeq int64
	NextSeq  int64
	Evicted  int64
}

// exportState materialises the ring's buffered rows (oldest first) and
// copies its sequence counters.
func (g *ring) exportState(id string) ringState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := ringState{ID: id, FirstSeq: g.firstSeq, NextSeq: g.nextSeq, Evicted: g.evicted}
	var c runChunk
	g.readRunsLocked(g.firstSeq-1, 0, &c)
	st.Rows = c.appendRows(make([]ResultRow, 0, c.rows()))
	return st
}

// importState replaces the ring's contents with an exported state,
// trimming the oldest rows if the importing ring is smaller than the
// exporter's (a ResultBuffer change across a restart). Runs are rebuilt
// from consecutive rows with equal headers.
func (g *ring) importState(st ringState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rows := st.Rows
	if len(rows) > g.capacity {
		rows = rows[len(rows)-g.capacity:]
	}
	g.keys, g.vals, g.head = g.keys[:0], g.vals[:0], 0
	g.hdrHead, g.hdrLen = 0, 0
	g.growRows(len(rows))
	// The rows end at NextSeq, so the oldest kept one is that many below
	// it (FirstSeq plus the trim, in a state exportState wrote).
	g.firstSeq = st.NextSeq - int64(len(rows))
	g.nextSeq = st.NextSeq
	g.evicted = st.Evicted
	for i := range rows {
		r := &rows[i]
		g.keys[i], g.vals[i] = r.Key, r.Value
		g.pushHeader(runHdr{firstSeq: g.firstSeq + int64(i), rng: r.Range, slide: r.Slide, start: r.Start, end: r.End})
	}
	g.wakeLocked()
}
