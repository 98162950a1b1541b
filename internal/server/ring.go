package server

import (
	"slices"
	"sync"

	"factorwindows/internal/stream"
)

// ResultRow is one delivered window-aggregate result, tagged with a
// per-query sequence number so clients can resume reads with a cursor.
type ResultRow struct {
	Seq   int64   `json:"seq"`
	Range int64   `json:"range"`
	Slide int64   `json:"slide"`
	Start int64   `json:"start"`
	End   int64   `json:"end"`
	Key   uint64  `json:"key"`
	Value float64 `json:"value"`
}

// ring is one query's bounded result buffer: a fixed-capacity circular
// buffer with monotonically increasing sequence numbers. Writers are the
// execution shards (serialized by the parallel runner's sink lock, but a
// ring takes no dependency on that); readers are HTTP handlers. When the
// buffer is full the oldest rows are overwritten and counted as evicted
// (distinct from the server's "dropped" counter, which is events ingested
// with no live query) — result delivery must never block ingestion.
type ring struct {
	mu       sync.Mutex
	capacity int
	rows     []ResultRow
	head     int   // index of the oldest row
	firstSeq int64 // sequence number of rows[head]
	nextSeq  int64
	// evicted counts every row overwritten by a newer one, read or not:
	// a full ring evicts one row per row delivered, however promptly its
	// readers drain it. What a reader actually lost is the missed count
	// readAfter hands it.
	evicted int64
	wait    chan struct{} // closed on append, but only once fetched
	waited  bool          // a waiter fetched wait since its last rotation
	closed  bool
}

func newRing(capacity int) *ring {
	return &ring{capacity: capacity, wait: make(chan struct{})}
}

func (g *ring) append(res stream.Result) {
	g.appendBatch([]stream.Result{res})
}

// appendBatch delivers one same-window run of rows under a single lock
// acquisition and a single waiter wakeup — the batched fire path lands
// here, so a 1000-key instance costs one lock, not a thousand. The rows
// land as contiguous segments: the tail of a ring still filling, then at
// most two runs over the oldest rows (up to the end of the buffer, and
// from its start), with the sequence and eviction counters moved once
// per batch.
func (g *ring) appendBatch(rs []stream.Result) {
	if len(rs) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	seq := g.nextSeq
	g.nextSeq += int64(len(rs))
	if room := g.capacity - len(g.rows); room > 0 {
		n := min(room, len(rs))
		at := len(g.rows)
		g.rows = slices.Grow(g.rows, n)[:at+n]
		fillRows(g.rows[at:], rs[:n], seq)
		rs, seq = rs[n:], seq+int64(n)
	}
	if over := len(rs); over > 0 {
		// Each of these rows evicts the oldest one. Of a batch larger
		// than the ring only the last capacity rows outlive the batch;
		// the others would be overwritten before the lock is released.
		if skip := over - g.capacity; skip > 0 {
			g.head = (g.head + skip) % g.capacity
			rs, seq = rs[skip:], seq+int64(skip)
		}
		n := min(len(rs), g.capacity-g.head)
		fillRows(g.rows[g.head:g.head+n], rs[:n], seq)
		fillRows(g.rows[:len(rs)-n], rs[n:], seq+int64(n))
		if g.head += len(rs); g.head >= g.capacity {
			g.head -= g.capacity
		}
		g.firstSeq += int64(over)
		g.evicted += int64(over)
	}
	g.wakeLocked()
}

// fillRows renders rs into dst (same length) as rows numbered from seq.
func fillRows(dst []ResultRow, rs []stream.Result, seq int64) {
	for i := range rs {
		r := &rs[i]
		dst[i] = ResultRow{
			Seq:   seq + int64(i),
			Range: r.W.Range,
			Slide: r.W.Slide,
			Start: r.Start,
			End:   r.End,
			Key:   r.Key,
			Value: r.Value,
		}
	}
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

// readAfter returns up to limit rows with Seq > after (limit <= 0 means
// all), plus the number of requested rows lost to eviction.
func (g *ring) readAfter(after int64, limit int) (rows []ResultRow, missed int64) {
	return g.readAfterInto(after, limit, nil)
}

// readAfterInto is readAfter appending into a caller-recycled buffer, so
// a long-lived stream reader polls without a per-poll slice allocation.
func (g *ring) readAfterInto(after int64, limit int, buf []ResultRow) (rows []ResultRow, missed int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	start := after + 1
	if start < g.firstSeq {
		missed = g.firstSeq - start
		start = g.firstSeq
	}
	n := g.nextSeq - start
	if n <= 0 {
		return buf, missed
	}
	if limit > 0 && n > int64(limit) {
		n = int64(limit)
	}
	if buf == nil {
		buf = make([]ResultRow, 0, n)
	}
	return g.appendRun(buf, int(start-g.firstSeq), int(n)), missed
}

// appendRun appends n buffered rows to dst, starting off rows past the
// oldest: one copy up to the end of the buffer and one from its start.
func (g *ring) appendRun(dst []ResultRow, off, n int) []ResultRow {
	if off += g.head; off >= len(g.rows) {
		off -= len(g.rows)
	}
	k := min(n, len(g.rows)-off)
	dst = append(dst, g.rows[off:off+k]...)
	return append(dst, g.rows[:n-k]...)
}

// waitCh returns a channel closed on the next append or close. Fetch it
// before readAfter to avoid missing a wakeup.
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
// those bytes include sequence numbers and eviction positions.
type ringState struct {
	ID       string
	Rows     []ResultRow // oldest first
	FirstSeq int64
	NextSeq  int64
	Evicted  int64
}

// exportState copies the ring's buffered rows (oldest first) and
// sequence counters.
func (g *ring) exportState(id string) ringState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := ringState{ID: id, FirstSeq: g.firstSeq, NextSeq: g.nextSeq, Evicted: g.evicted}
	st.Rows = g.appendRun(make([]ResultRow, 0, len(g.rows)), 0, len(g.rows))
	return st
}

// importState replaces the ring's contents with an exported state,
// trimming the oldest rows if the importing ring is smaller than the
// exporter's (a ResultBuffer change across a restart).
func (g *ring) importState(st ringState) {
	g.mu.Lock()
	defer g.mu.Unlock()
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
	g.wakeLocked()
}
