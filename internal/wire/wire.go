// Package wire is the binary columnar frame format the serving layer
// speaks beside its text codecs. A frame is a length-prefixed header
// followed by contiguous per-field vectors (time/key/value for events;
// range/slide/start/end/key/value for results), so a megabyte of ingest
// decodes in one sweep over three column vectors instead of a JSON parse
// per event, and a drained result run encodes as one frame per poll.
//
// Frame layout (all integers little-endian):
//
//	off  0  u32  length of the remainder (magic through payload end)
//	off  4  'F','W'  magic
//	off  6  u8   version (currently 1)
//	off  7  u8   kind: 1 events, 2 results, 3 control
//	off  8  u32  row count
//	off 12  u32  stream id (persistent-listener multiplexing; 0 over HTTP)
//	off 16  i64  aux — results: sequence number of row 0; otherwise 0
//	off 24  payload, one contiguous 8-byte-wide vector per column:
//	        events:  time[n]i64 | key[n]u64 | value[n]f64
//	        results: range[n]i64 | slide[n]i64 | start[n]i64 | end[n]i64 | key[n]u64 | value[n]f64
//	        control: raw bytes (row count 0); subscription acks and errors
//
// Result frames carry no per-row sequence column: the serving layer's
// rings hand out consecutive sequence numbers, so row i's sequence is
// aux+i and the column would be pure redundancy on the wire.
//
// Decoding is zero-copy: a Frame is a typed view over the encoded bytes,
// and the column accessors read straight out of them (no alignment
// assumptions — every load is an explicit little-endian fetch). Malformed
// input returns typed errors, never panics: the length prefix is bounded
// by MaxFrameBytes before any allocation, and every accessor range is
// validated against the actual payload size at decode time.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"factorwindows/internal/stream"
)

// Frame kinds.
const (
	KindEvents  = 1
	KindResults = 2
	KindControl = 3
)

// Version is the frame format version this package encodes.
const Version = 1

const (
	// prefixLen is the u32 length prefix.
	prefixLen = 4
	// headerLen is the fixed header after the prefix (magic through aux).
	headerLen = 20
	// eventCols / resultCols are the per-kind column counts.
	eventCols  = 3
	resultCols = 6
	// colWidth is the byte width of every column element.
	colWidth = 8
)

// MaxFrameRows bounds the row count of one frame; encoders chunk larger
// batches, and decoders reject anything bigger before touching payload.
const MaxFrameRows = 1 << 20

// MaxFrameBytes bounds one frame's encoded size (the length prefix is
// validated against it before any buffer is grown, so a hostile prefix
// cannot make a reader allocate gigabytes).
const MaxFrameBytes = prefixLen + headerLen + MaxFrameRows*resultCols*colWidth

// Typed decode errors. ErrShort means the buffer ends mid-frame — a
// streaming reader treats it as "need more bytes", a whole-message
// decoder as truncation.
var (
	ErrShort    = errors.New("wire: truncated frame")
	ErrMagic    = errors.New("wire: bad frame magic")
	ErrVersion  = errors.New("wire: unsupported frame version")
	ErrKind     = errors.New("wire: unknown frame kind")
	ErrTooLarge = errors.New("wire: frame exceeds size bounds")
	ErrSize     = errors.New("wire: frame length inconsistent with row count")
)

// Frame is a decoded view over one frame's bytes. The payload aliases
// the buffer it was decoded from; it is valid only as long as that
// buffer is (a Reader reuses its buffer on the next Next call).
type Frame struct {
	Kind     byte
	StreamID uint32
	// Seq is the header's aux word: the sequence number of row 0 for
	// result frames (row i is Seq+i), a flag bitmask for control
	// frames, and 0 for event frames.
	Seq     int64
	rows    int
	payload []byte
}

// Rows reports the number of rows in the frame.
func (f Frame) Rows() int { return f.rows }

// u64 reads the i-th element of the column starting at byte offset col.
func (f Frame) u64(col, i int) uint64 {
	off := col + i*colWidth
	return binary.LittleEndian.Uint64(f.payload[off : off+colWidth])
}

// Event returns row i of an events frame.
func (f Frame) Event(i int) stream.Event {
	if f.Kind != KindEvents || i < 0 || i >= f.rows {
		panic("wire: Event out of range")
	}
	n := f.rows * colWidth
	return stream.Event{
		Time:  int64(f.u64(0, i)),
		Key:   f.u64(n, i),
		Value: math.Float64frombits(f.u64(2*n, i)),
	}
}

// AppendEvents decodes an events frame onto the end of dst — the
// staging shape the engine's batch path ingests directly. The three
// column vectors are read in one sweep through pre-sliced views, each
// row written whole, so the decode is one pass over the output rather
// than one strided pass per column.
func (f Frame) AppendEvents(dst []stream.Event) []stream.Event {
	if f.Kind != KindEvents {
		panic("wire: AppendEvents on non-event frame")
	}
	base := len(dst)
	dst = slices.Grow(dst, f.rows)[:base+f.rows]
	out := dst[base:]
	n := f.rows * colWidth
	ts, ks, vs := f.payload[:n], f.payload[n:2*n], f.payload[2*n:3*n]
	le := binary.LittleEndian
	for i := range out {
		o := i * colWidth
		out[i] = stream.Event{
			Time:  int64(le.Uint64(ts[o : o+colWidth])),
			Key:   le.Uint64(ks[o : o+colWidth]),
			Value: math.Float64frombits(le.Uint64(vs[o : o+colWidth])),
		}
	}
	return dst
}

// Result returns row i of a results frame; seq is Seq+i.
func (f Frame) Result(i int) (seq, rng, slide, start, end int64, key uint64, value float64) {
	if f.Kind != KindResults || i < 0 || i >= f.rows {
		panic("wire: Result out of range")
	}
	n := f.rows * colWidth
	return f.Seq + int64(i),
		int64(f.u64(0, i)),
		int64(f.u64(n, i)),
		int64(f.u64(2*n, i)),
		int64(f.u64(3*n, i)),
		f.u64(4*n, i),
		math.Float64frombits(f.u64(5*n, i))
}

// Control returns a control frame's raw payload.
func (f Frame) Control() []byte {
	if f.Kind != KindControl {
		panic("wire: Control on non-control frame")
	}
	return f.payload
}

// appendHeader appends the length prefix and header for a frame whose
// payload will be payloadLen bytes, returning dst ready for the payload.
func appendHeader(dst []byte, kind byte, rows int, streamID uint32, aux int64, payloadLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+payloadLen))
	dst = append(dst, 'F', 'W', Version, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = binary.LittleEndian.AppendUint32(dst, streamID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(aux))
	return dst
}

// AppendEventFrame appends events as one frame (column vectors, not
// per-event records). Batches beyond MaxFrameRows must be chunked by the
// caller; it panics rather than encode an undecodable frame.
func AppendEventFrame(dst []byte, events []stream.Event) []byte {
	n := len(events)
	if n > MaxFrameRows {
		panic("wire: event batch exceeds MaxFrameRows")
	}
	dst = appendHeader(dst, KindEvents, n, 0, 0, n*eventCols*colWidth)
	for i := range events {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(events[i].Time))
	}
	for i := range events {
		dst = binary.LittleEndian.AppendUint64(dst, events[i].Key)
	}
	for i := range events {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(events[i].Value))
	}
	return dst
}

// AppendEventFrames appends a batch of any length as consecutive event
// frames of at most MaxFrameRows rows, growing dst once to the exact
// encoded size.
func AppendEventFrames(dst []byte, events []stream.Event) []byte {
	frames := (len(events) + MaxFrameRows - 1) / MaxFrameRows
	dst = slices.Grow(dst, frames*(prefixLen+headerLen)+len(events)*eventCols*colWidth)
	for off := 0; off < len(events); off += MaxFrameRows {
		dst = AppendEventFrame(dst, events[off:min(off+MaxFrameRows, len(events))])
	}
	return dst
}

// ResultEncoder writes one results frame of a known row count into a
// caller-owned buffer; SetRow scatters each row across the column
// vectors in place, so the encode is a single pass over the rows with
// no intermediate staging.
type ResultEncoder struct {
	buf  []byte
	base int // payload offset within buf
	rows int
}

// BeginResultFrame appends the header and zeroed payload of a results
// frame with rows rows to dst; fill it with SetRow and read the encoded
// bytes back with Bytes. firstSeq is row 0's sequence number (row i is
// firstSeq+i on the wire).
func BeginResultFrame(dst []byte, streamID uint32, firstSeq int64, rows int) ResultEncoder {
	if rows > MaxFrameRows {
		panic("wire: result batch exceeds MaxFrameRows")
	}
	payload := rows * resultCols * colWidth
	dst = appendHeader(dst, KindResults, rows, streamID, firstSeq, payload)
	base := len(dst)
	if need := base + payload; cap(dst) < need {
		dst = append(dst, make([]byte, payload)...)
	} else {
		dst = dst[:need]
	}
	return ResultEncoder{buf: dst, base: base, rows: rows}
}

// SetRow writes row i's fields into their column slots.
func (e *ResultEncoder) SetRow(i int, rng, slide, start, end int64, key uint64, value float64) {
	if i < 0 || i >= e.rows {
		panic("wire: SetRow out of range")
	}
	n := e.rows * colWidth
	off := e.base + i*colWidth
	put := binary.LittleEndian.PutUint64
	put(e.buf[off:], uint64(rng))
	put(e.buf[off+n:], uint64(slide))
	put(e.buf[off+2*n:], uint64(start))
	put(e.buf[off+3*n:], uint64(end))
	put(e.buf[off+4*n:], key)
	put(e.buf[off+5*n:], math.Float64bits(value))
}

// SetRun writes one run — len(keys) rows sharing rng, slide, start and
// end — into rows i, i+1, … of the frame, the same bytes per-row SetRow
// calls would write, with one range check per run and the header read
// from registers instead of from each row. It stays one pass storing
// all six columns per row: measured against a fill loop per header
// column plus a copy per value column, the single pass was faster at
// every run length from 1 to 1024 rows.
func (e *ResultEncoder) SetRun(i int, rng, slide, start, end int64, keys []uint64, vals []float64) {
	if i < 0 || len(keys) != len(vals) || i+len(keys) > e.rows {
		panic("wire: SetRun out of range")
	}
	n := e.rows * colWidth
	put := binary.LittleEndian.PutUint64
	for j, k := range keys {
		off := e.base + (i+j)*colWidth
		put(e.buf[off:], uint64(rng))
		put(e.buf[off+n:], uint64(slide))
		put(e.buf[off+2*n:], uint64(start))
		put(e.buf[off+3*n:], uint64(end))
		put(e.buf[off+4*n:], k)
		put(e.buf[off+5*n:], math.Float64bits(vals[j]))
	}
}

// Bytes returns the buffer with the encoded frame appended.
func (e ResultEncoder) Bytes() []byte { return e.buf }

// AppendControlFrame appends a control frame (row count 0) carrying
// payload — the persistent listener's subscription acks and errors.
func AppendControlFrame(dst []byte, streamID uint32, payload []byte) []byte {
	return AppendControlFrameAux(dst, streamID, 0, payload)
}

// AppendControlFrameAux is AppendControlFrame with the header's aux
// word set — a flag field decoded back into Frame.Seq, carrying
// per-frame signals (durable ingest acks, subscription gap notices)
// without touching the JSON payload.
func AppendControlFrameAux(dst []byte, streamID uint32, aux int64, payload []byte) []byte {
	if len(payload) > MaxFrameRows {
		panic("wire: control payload exceeds bounds")
	}
	dst = appendHeader(dst, KindControl, 0, streamID, aux, len(payload))
	return append(dst, payload...)
}

// Decode parses one frame from the front of buf, returning the frame
// view (aliasing buf) and the remaining bytes. ErrShort means buf ends
// mid-frame; the other errors mean the bytes are not a valid frame.
func Decode(buf []byte) (Frame, []byte, error) {
	if len(buf) < prefixLen {
		return Frame{}, buf, ErrShort
	}
	length := binary.LittleEndian.Uint32(buf)
	if length < headerLen {
		return Frame{}, buf, fmt.Errorf("%w: length %d below header size", ErrSize, length)
	}
	if int64(length) > int64(MaxFrameBytes-prefixLen) {
		return Frame{}, buf, fmt.Errorf("%w: length %d", ErrTooLarge, length)
	}
	if len(buf) < prefixLen+int(length) {
		return Frame{}, buf, ErrShort
	}
	f, err := decodeBody(buf[prefixLen : prefixLen+int(length)])
	if err != nil {
		return Frame{}, buf, err
	}
	return f, buf[prefixLen+int(length):], nil
}

// decodeBody validates header+payload bytes (the length prefix already
// stripped) into a Frame view.
func decodeBody(b []byte) (Frame, error) {
	if len(b) < headerLen {
		return Frame{}, ErrShort
	}
	if b[0] != 'F' || b[1] != 'W' {
		return Frame{}, ErrMagic
	}
	if b[2] != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrVersion, b[2])
	}
	kind := b[3]
	rows := binary.LittleEndian.Uint32(b[4:])
	if rows > MaxFrameRows {
		return Frame{}, fmt.Errorf("%w: %d rows", ErrTooLarge, rows)
	}
	f := Frame{
		Kind:     kind,
		StreamID: binary.LittleEndian.Uint32(b[8:]),
		rows:     int(rows),
		payload:  b[headerLen:],
	}
	switch kind {
	case KindEvents:
		if len(f.payload) != f.rows*eventCols*colWidth {
			return Frame{}, fmt.Errorf("%w: %d payload bytes for %d event rows", ErrSize, len(f.payload), f.rows)
		}
	case KindResults:
		f.Seq = int64(binary.LittleEndian.Uint64(b[12:]))
		if len(f.payload) != f.rows*resultCols*colWidth {
			return Frame{}, fmt.Errorf("%w: %d payload bytes for %d result rows", ErrSize, len(f.payload), f.rows)
		}
	case KindControl:
		f.Seq = int64(binary.LittleEndian.Uint64(b[12:]))
		if f.rows != 0 {
			return Frame{}, fmt.Errorf("%w: control frame with %d rows", ErrSize, f.rows)
		}
	default:
		return Frame{}, fmt.Errorf("%w: %d", ErrKind, kind)
	}
	return f, nil
}

// readBufPool recycles Reader frame buffers; ingest handlers create one
// Reader per request, so per-request buffers would otherwise dominate
// the binary path's allocation profile the way scanner buffers would
// the text paths'.
var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// maxReadRetain bounds the pooled buffer capacity retained after a
// Reader closes, mirroring streamio's encode-buffer retention rule.
const maxReadRetain = 1 << 22

// Reader decodes a stream of frames from r with a pooled buffer. The
// Frame returned by Next aliases that buffer and is invalidated by the
// following Next call; Close returns the buffer to the pool.
type Reader struct {
	r    io.Reader
	bufp *[]byte
	// prefix is the length-prefix scratch; a Next-local array would
	// escape through the io.ReadFull interface call and cost one heap
	// allocation per frame.
	prefix [prefixLen]byte
}

// NewReader builds a frame reader over r; pair it with Close.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, bufp: readBufPool.Get().(*[]byte)}
}

// Reset repoints the reader at a new byte stream, keeping its read
// buffer. Long-lived consumers (a persistent connection re-polling, a
// steady-state benchmark) reset one Reader instead of paying a Reader
// and pool round-trip per stream.
func (fr *Reader) Reset(r io.Reader) {
	fr.r = r
	if fr.bufp == nil { // reuse after Close: re-arm the buffer
		fr.bufp = readBufPool.Get().(*[]byte)
	}
}

// Next reads and decodes the next frame. A clean end of stream returns
// io.EOF; a stream severed mid-frame returns ErrShort.
func (fr *Reader) Next() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.prefix[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, ErrShort
	}
	length := binary.LittleEndian.Uint32(fr.prefix[:])
	if length < headerLen {
		return Frame{}, fmt.Errorf("%w: length %d below header size", ErrSize, length)
	}
	if int64(length) > int64(MaxFrameBytes-prefixLen) {
		return Frame{}, fmt.Errorf("%w: length %d", ErrTooLarge, length)
	}
	buf := *fr.bufp
	if cap(buf) < int(length) {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	*fr.bufp = buf
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return Frame{}, ErrShort
	}
	return decodeBody(buf)
}

// Close recycles the reader's buffer. The last returned Frame is
// invalidated.
func (fr *Reader) Close() {
	if fr.bufp == nil {
		return
	}
	if cap(*fr.bufp) <= maxReadRetain {
		*fr.bufp = (*fr.bufp)[:0]
		readBufPool.Put(fr.bufp)
	}
	fr.bufp = nil
}
