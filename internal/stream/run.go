package stream

import (
	"sync"

	"factorwindows/internal/window"
)

// Run is the result of one fired window instance in the shape the
// engine produces it: one (W, Start, End) header over a key column and a
// value column of equal length. Row i of the run is the Result
// {W, Start, End, Keys[i], Vals[i]}. A Run handed to a sink is borrowed
// for the call, like a BatchSink batch: the columns alias the emitter's
// scratch, so a sink copies what it retains.
type Run struct {
	W     window.Window
	Start int64
	End   int64
	Keys  []uint64
	Vals  []float64
}

// Len reports the run's row count.
func (r Run) Len() int { return len(r.Keys) }

// RunSink is the columnar extension of Sink and the serving path's
// result interface: a fired instance travels as one Run from the engine
// to the stream encoder, and rows are only materialised for sinks that
// lack it (EmitRun).
type RunSink interface {
	Sink
	EmitRun(Run)
}

// EmitRun delivers r through s: as is when s implements RunSink,
// otherwise materialised as rows — one EmitBatch for a BatchSink,
// per-row Emit for a plain Sink.
func EmitRun(s Sink, r Run) {
	if len(r.Keys) == 0 {
		return
	}
	if rs, ok := s.(RunSink); ok {
		rs.EmitRun(r)
		return
	}
	emitRows(s, r)
}

// rowScratch recycles the row slices emitRows builds for BatchSinks.
var rowScratch = sync.Pool{New: func() any { return new([]Result) }}

func emitRows(s Sink, r Run) {
	bs, ok := s.(BatchSink)
	if !ok {
		for i, k := range r.Keys {
			s.Emit(Result{W: r.W, Start: r.Start, End: r.End, Key: k, Value: r.Vals[i]})
		}
		return
	}
	p := rowScratch.Get().(*[]Result)
	rows := (*p)[:0]
	for i, k := range r.Keys {
		rows = append(rows, Result{W: r.W, Start: r.Start, End: r.End, Key: k, Value: r.Vals[i]})
	}
	bs.EmitBatch(rows)
	if cap(rows) <= RunRetain {
		*p = rows[:0]
		rowScratch.Put(p)
	}
}

// EmitRun implements RunSink.
func (s *CountingSink) EmitRun(r Run) { s.N += int64(len(r.Keys)) }

// EmitRun implements RunSink.
func (s *CollectingSink) EmitRun(r Run) {
	for i, k := range r.Keys {
		s.Results = append(s.Results, Result{W: r.W, Start: r.Start, End: r.End, Key: k, Value: r.Vals[i]})
	}
}

// RunRetain bounds, in rows, the column capacity a RunBuffer (and the
// row scratch of EmitRun's fallback) keeps across a Reset. It is twice
// the ordered-drain spill mark of the shard tiers (append's growth can
// overshoot a length at the mark by that much), so a buffer that
// legitimately fills to the mark every barrier recycles its columns,
// while one high-cardinality burst beyond it is dropped for the GC
// instead of pinning burst-sized columns on every shard forever.
const RunRetain = 1 << 16

// runHeader is one buffered run: its header and the offset one past its
// last row in the buffer's columns (the run starts where the previous
// one ends).
type runHeader struct {
	w          window.Window
	start, end int64
	upto       int
}

// RunBuffer is an append-only buffer of runs — headers plus one key and
// one value column, 16 bytes a row — and the ordered-drain buffer every
// shard tier shares: parallel's shard sinks, the router's per-shard
// pending results and the shard worker's session all hold one. It
// implements RunSink, so an engine can emit straight into it. Adjacent
// appends with equal headers coalesce into one run. The zero value is
// ready to use; a RunBuffer serves one goroutine at a time.
type RunBuffer struct {
	hdrs []runHeader
	keys []uint64
	vals []float64
}

// Append copies r onto the end of the buffer.
func (b *RunBuffer) Append(r Run) {
	if len(r.Keys) == 0 {
		return
	}
	b.keys = append(b.keys, r.Keys...)
	b.vals = append(b.vals, r.Vals...)
	b.extend(r.W, r.Start, r.End)
}

// EmitRun implements RunSink; it is Append.
func (b *RunBuffer) EmitRun(r Run) { b.Append(r) }

// Emit implements Sink: one row, joining the last run when the headers
// match.
func (b *RunBuffer) Emit(r Result) {
	b.keys = append(b.keys, r.Key)
	b.vals = append(b.vals, r.Value)
	b.extend(r.W, r.Start, r.End)
}

// extend accounts the rows just appended to the columns to the last run
// if its header matches, and to a new run otherwise.
func (b *RunBuffer) extend(w window.Window, start, end int64) {
	if n := len(b.hdrs); n > 0 {
		if h := &b.hdrs[n-1]; h.w == w && h.start == start && h.end == end {
			h.upto = len(b.keys)
			return
		}
	}
	b.hdrs = append(b.hdrs, runHeader{w: w, start: start, end: end, upto: len(b.keys)})
}

// Rows reports the buffered row count.
func (b *RunBuffer) Rows() int { return len(b.keys) }

// Runs reports the buffered run count.
func (b *RunBuffer) Runs() int { return len(b.hdrs) }

// Run returns the i-th buffered run as a view over the buffer's
// columns, valid until the next Append, Emit, Drain or Reset.
func (b *RunBuffer) Run(i int) Run {
	from := 0
	if i > 0 {
		from = b.hdrs[i-1].upto
	}
	h := b.hdrs[i]
	return Run{W: h.w, Start: h.start, End: h.end, Keys: b.keys[from:h.upto], Vals: b.vals[from:h.upto]}
}

// Drain delivers every buffered run to s in append order (through
// EmitRun's fallback when s is not a RunSink) and resets the buffer.
func (b *RunBuffer) Drain(s Sink) {
	for i := range b.hdrs {
		EmitRun(s, b.Run(i))
	}
	b.Reset()
}

// Reset empties the buffer, keeping its columns for reuse unless they
// grew past RunRetain rows.
func (b *RunBuffer) Reset() {
	if cap(b.keys) > RunRetain || cap(b.vals) > RunRetain || cap(b.hdrs) > RunRetain {
		*b = RunBuffer{}
		return
	}
	b.hdrs, b.keys, b.vals = b.hdrs[:0], b.keys[:0], b.vals[:0]
}
