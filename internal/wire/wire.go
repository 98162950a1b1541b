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
//	off  6  u8   version: 2 for event frames, 1 for every other kind
//	off  7  u8   kind: 1 events, 2 results, 3 control
//	off  8  u32  row count
//	off 12  u32  stream id (persistent-listener multiplexing; 0 over HTTP)
//	off 16  i64  aux — results: sequence number of row 0; control: flags;
//	             version-2 events: byte 0 time width, byte 1 key width
//	off 24  payload:
//	        events v2: time base u64 | key base u64 |
//	                   time offset[n] (tw bytes) | key offset[n] (kw bytes) | value[n]f64
//	        events v1: time[n]i64 | key[n]u64 | value[n]f64
//	        results:   range[n]i64 | slide[n]i64 | start[n]i64 | end[n]i64 | key[n]u64 | value[n]f64
//	        control:   raw bytes (row count 0); subscription acks and errors
//
// Event frames are frame-of-reference coded (Goldstein, Ramakrishnan and
// Shaft, "Compressing Relations and Indexes", ICDE 1998): time and key
// are each the frame's minimum plus one unsigned offset per row, in the
// narrowest of 1, 2, 4 or 8 bytes that holds max − min. An 8,192-event
// ingest batch typically spans some hundred ticks and at most a few
// thousand keys, so a row costs 10–11 bytes instead of 24 — every WAL
// record, router→worker frame and journal entry is that much smaller to
// stage, hash and write. The value
// column stays 8 raw float64 bytes: it is the one column whose bit
// patterns (NaN payloads, −0) the layout must carry untouched.
//
// Compatibility: the version-1 event layout (three fixed 8-byte columns)
// is exactly the version-2 layout with both widths 8, both bases 0 and no
// base words, so one decoder reads both and every frame an older client
// sends decodes bit-identically. Encoders write only version 2; an older
// decoder handed one rejects it with its ErrVersion instead of
// misreading it. Result and control frames are unchanged at version 1.
//
// The event encoder stays per column: one min/max scan, then the time and
// key offsets (in one pass when both are byte-wide, the common case),
// then the value column, each pass specialised on its width. A per-row
// width switch, the scan fused with the column writes, and a speculative
// one-pass encoder all measured slower.
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

// Version is the format version of result and control frames, and of
// the fixed-width event layout decoders still accept from older clients.
const Version = 1

// EventVersion is the format version of the width-adaptive event layout,
// the only one AppendEventFrame writes.
const EventVersion = 2

const (
	// prefixLen is the u32 length prefix.
	prefixLen = 4
	// headerLen is the fixed header after the prefix (magic through aux).
	headerLen = 20
	// resultCols is a result frame's column count.
	resultCols = 6
	// colWidth is the byte width of every fixed-width column element.
	colWidth = 8
	// eventBases is the version-2 event payload's preamble: the time
	// and key columns' u64 bases.
	eventBases = 16
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
	ErrWidth    = errors.New("wire: bad event column width")
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
	// Event frames only: the time and key offset widths (a version-1
	// frame reads as width 8, base 0), their bases, and where each of
	// the three columns starts in payload.
	tw, kw           int
	tbase, kbase     uint64
	tcol, kcol, vcol int
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
	return stream.Event{
		Time:  int64(f.tbase + offsetAt(f.payload[f.tcol:f.kcol], f.tw, i)),
		Key:   f.kbase + offsetAt(f.payload[f.kcol:f.vcol], f.kw, i),
		Value: math.Float64frombits(offsetAt(f.payload[f.vcol:], colWidth, i)),
	}
}

// offsetAt reads element i of a column of w-byte elements.
func offsetAt(col []byte, w, i int) uint64 {
	le := binary.LittleEndian
	switch w {
	case 1:
		return uint64(col[i])
	case 2:
		return uint64(le.Uint16(col[2*i : 2*i+2]))
	case 4:
		return uint64(le.Uint32(col[4*i : 4*i+4]))
	}
	return le.Uint64(col[8*i : 8*i+8])
}

// AppendEvents decodes an events frame onto the end of dst — the
// staging shape the engine's batch path ingests directly. Narrow columns
// are one pass each, specialised on their width, so no row pays a width
// switch; full-width frames decode in one sweep of whole rows.
func (f Frame) AppendEvents(dst []stream.Event) []stream.Event {
	if f.Kind != KindEvents {
		panic("wire: AppendEvents on non-event frame")
	}
	base := len(dst)
	dst = slices.Grow(dst, f.rows)[:base+f.rows]
	out := dst[base:]
	vs := f.payload[f.vcol:][:len(out)*colWidth]
	le := binary.LittleEndian
	if f.tw == colWidth && f.kw == colWidth {
		// Full-width columns (every version-1 frame): one sweep writing
		// whole rows beats three strided passes.
		ts, ks := f.payload[f.tcol:f.kcol], f.payload[f.kcol:f.vcol]
		for i := range out {
			o := i * colWidth
			out[i] = stream.Event{
				Time:  int64(f.tbase + le.Uint64(ts[o:o+colWidth])),
				Key:   f.kbase + le.Uint64(ks[o:o+colWidth]),
				Value: math.Float64frombits(le.Uint64(vs[o : o+colWidth])),
			}
		}
		return dst
	}
	getTimes(out, f.payload[f.tcol:f.kcol], f.tw, f.tbase)
	getKeys(out, f.payload[f.kcol:f.vcol], f.kw, f.kbase)
	for i := range out {
		o := i * colWidth
		out[i].Value = math.Float64frombits(le.Uint64(vs[o : o+colWidth]))
	}
	return dst
}

// getTimes sets out[i].Time to base plus the column's i-th w-byte offset.
func getTimes(out []stream.Event, col []byte, w int, base uint64) {
	le := binary.LittleEndian
	switch w {
	case 1:
		col = col[:len(out)]
		for i := range out {
			out[i].Time = int64(base + uint64(col[i]))
		}
	case 2:
		col = col[:2*len(out)]
		for i := range out {
			out[i].Time = int64(base + uint64(le.Uint16(col[2*i:2*i+2])))
		}
	case 4:
		col = col[:4*len(out)]
		for i := range out {
			out[i].Time = int64(base + uint64(le.Uint32(col[4*i:4*i+4])))
		}
	default:
		col = col[:8*len(out)]
		for i := range out {
			out[i].Time = int64(base + le.Uint64(col[8*i:8*i+8]))
		}
	}
}

// getKeys is getTimes for the key column.
func getKeys(out []stream.Event, col []byte, w int, base uint64) {
	le := binary.LittleEndian
	switch w {
	case 1:
		col = col[:len(out)]
		for i := range out {
			out[i].Key = base + uint64(col[i])
		}
	case 2:
		col = col[:2*len(out)]
		for i := range out {
			out[i].Key = base + uint64(le.Uint16(col[2*i:2*i+2]))
		}
	case 4:
		col = col[:4*len(out)]
		for i := range out {
			out[i].Key = base + uint64(le.Uint32(col[4*i:4*i+4]))
		}
	default:
		col = col[:8*len(out)]
		for i := range out {
			out[i].Key = base + le.Uint64(col[8*i:8*i+8])
		}
	}
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
func appendHeader(dst []byte, version, kind byte, rows int, streamID uint32, aux int64, payloadLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+payloadLen))
	dst = append(dst, 'F', 'W', version, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = binary.LittleEndian.AppendUint32(dst, streamID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(aux))
	return dst
}

// AppendEventFrame appends events as one width-adaptive frame, growing
// dst once to the frame's exact size. Batches beyond MaxFrameRows must be
// chunked by the caller; it panics rather than encode an undecodable
// frame.
func AppendEventFrame(dst []byte, events []stream.Event) []byte {
	n := len(events)
	if n > MaxFrameRows {
		panic("wire: event batch exceeds MaxFrameRows")
	}
	tmin, tmax, kmin, kmax := bounds(events)
	tw, kw := widthOf(uint64(tmax)-uint64(tmin)), widthOf(kmax-kmin)
	payload := eventBases + n*(tw+kw+colWidth)
	dst = slices.Grow(dst, prefixLen+headerLen+payload)
	dst = appendHeader(dst, EventVersion, KindEvents, n, 0, int64(tw|kw<<8), payload)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tmin))
	dst = binary.LittleEndian.AppendUint64(dst, kmin)
	if tw == 1 && kw == 1 {
		dst = appendBytePairs(dst, uint64(tmin), kmin, events)
	} else {
		dst = appendTimes(dst, tw, uint64(tmin), events)
		dst = appendKeys(dst, kw, kmin, events)
	}
	for i := range events {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(events[i].Value))
	}
	return dst
}

// bounds returns the events' least and greatest time and key (all zero
// for no events).
func bounds(events []stream.Event) (tmin, tmax int64, kmin, kmax uint64) {
	if len(events) == 0 {
		return 0, 0, 0, 0
	}
	tmin, tmax, kmin, kmax = events[0].Time, events[0].Time, events[0].Key, events[0].Key
	for i := range events {
		t, k := events[i].Time, events[i].Key
		tmin, tmax = min(tmin, t), max(tmax, t)
		kmin, kmax = min(kmin, k), max(kmax, k)
	}
	return tmin, tmax, kmin, kmax
}

// widthOf is the narrowest offset width, in bytes, that holds span.
func widthOf(span uint64) int {
	switch {
	case span <= math.MaxUint8:
		return 1
	case span <= math.MaxUint16:
		return 2
	case span <= math.MaxUint32:
		return 4
	}
	return 8
}

// appendTimes appends each event's time minus base, w bytes a row, into
// capacity the caller reserved. Byte-wide rows are stored through an
// index, wider ones appended: each is the faster form at its width.
func appendTimes(dst []byte, w int, base uint64, events []stream.Event) []byte {
	le := binary.LittleEndian
	switch w {
	case 1:
		at := len(dst)
		dst = dst[:at+len(events)]
		col := dst[at:]
		for i := range events {
			col[i] = byte(uint64(events[i].Time) - base)
		}
	case 2:
		for i := range events {
			dst = le.AppendUint16(dst, uint16(uint64(events[i].Time)-base))
		}
	case 4:
		for i := range events {
			dst = le.AppendUint32(dst, uint32(uint64(events[i].Time)-base))
		}
	default:
		for i := range events {
			dst = le.AppendUint64(dst, uint64(events[i].Time)-base)
		}
	}
	return dst
}

// appendBytePairs writes byte-wide time and key columns in one pass —
// the shape of nearly every ingest batch, where one pass over the events
// beats two.
func appendBytePairs(dst []byte, tbase, kbase uint64, events []stream.Event) []byte {
	at, n := len(dst), len(events)
	dst = dst[:at+2*n]
	ts, ks := dst[at:at+n], dst[at+n:at+2*n]
	for i := range events {
		ts[i] = byte(uint64(events[i].Time) - tbase)
		ks[i] = byte(events[i].Key - kbase)
	}
	return dst
}

// appendKeys is appendTimes for the key column.
func appendKeys(dst []byte, w int, base uint64, events []stream.Event) []byte {
	le := binary.LittleEndian
	switch w {
	case 1:
		at := len(dst)
		dst = dst[:at+len(events)]
		col := dst[at:]
		for i := range events {
			col[i] = byte(events[i].Key - base)
		}
	case 2:
		for i := range events {
			dst = le.AppendUint16(dst, uint16(events[i].Key-base))
		}
	case 4:
		for i := range events {
			dst = le.AppendUint32(dst, uint32(events[i].Key-base))
		}
	default:
		for i := range events {
			dst = le.AppendUint64(dst, events[i].Key-base)
		}
	}
	return dst
}

// AppendEventFrames appends a batch of any length as consecutive event
// frames of at most MaxFrameRows rows, each grown to its exact size.
func AppendEventFrames(dst []byte, events []stream.Event) []byte {
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
	dst = appendHeader(dst, Version, KindResults, rows, streamID, firstSeq, payload)
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
	dst = slices.Grow(dst, prefixLen+headerLen+len(payload))
	dst = appendHeader(dst, Version, KindControl, 0, streamID, aux, len(payload))
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
	version, kind := b[2], b[3]
	if version != Version && version != EventVersion ||
		version == EventVersion && (kind == KindResults || kind == KindControl) {
		return Frame{}, fmt.Errorf("%w: %d on a kind-%d frame", ErrVersion, version, kind)
	}
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
		return f.eventLayout(version, binary.LittleEndian.Uint64(b[12:]))
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

// eventLayout validates an events frame's payload against its version,
// widths and row count, and records where its columns start. A version-1
// frame's aux is ignored, as it always was.
func (f Frame) eventLayout(version byte, aux uint64) (Frame, error) {
	f.tw, f.kw = colWidth, colWidth
	if version == EventVersion {
		f.tw, f.kw = int(aux&0xff), int(aux>>8&0xff)
		if aux>>16 != 0 || !validWidth(f.tw) || !validWidth(f.kw) {
			return Frame{}, fmt.Errorf("%w: aux %#x", ErrWidth, aux)
		}
		if len(f.payload) < eventBases {
			return Frame{}, fmt.Errorf("%w: %d payload bytes for %d event rows", ErrSize, len(f.payload), f.rows)
		}
		f.tbase = binary.LittleEndian.Uint64(f.payload)
		f.kbase = binary.LittleEndian.Uint64(f.payload[8:])
		f.tcol = eventBases
	}
	f.kcol = f.tcol + f.rows*f.tw
	f.vcol = f.kcol + f.rows*f.kw
	if len(f.payload) != f.vcol+f.rows*colWidth {
		return Frame{}, fmt.Errorf("%w: %d payload bytes for %d event rows", ErrSize, len(f.payload), f.rows)
	}
	return f, nil
}

func validWidth(w int) bool { return w == 1 || w == 2 || w == 4 || w == 8 }

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
