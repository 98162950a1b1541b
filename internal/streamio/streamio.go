// Package streamio reads and writes event streams and result sets in
// the formats the command-line tools speak: CSV ("time,key,value" rows,
// optional header), JSON Lines (one object per line), and the binary
// columnar frames of internal/wire. Readers validate ordering on
// request so executors can rely on the in-order contract.
package streamio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"factorwindows/internal/stream"
	"factorwindows/internal/wire"
)

// scanBufPool recycles scanner line buffers across reads: decoding is on
// the serving layer's ingest path (the HTTP handlers build one line
// scanner per text request), so per-call megabyte buffers would dominate
// its allocation profile. Scanners still grow to maxLine for oversized
// lines.
var scanBufPool = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// maxLine is the longest accepted input line.
const maxLine = 1 << 20

// encodeBufPool recycles egress encode buffers: the serving layer's
// result stream and the batch writers below append whole line batches
// into one buffer before a single Write. Oversized buffers (beyond
// maxEncodeRetain) are dropped instead of pooled so one huge response
// does not pin memory.
var encodeBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 32<<10)
	return &b
}}

const maxEncodeRetain = 1 << 20

// GetEncodeBuf borrows a pooled byte buffer for wire encoding; pair it
// with PutEncodeBuf. The buffer is returned length-0 with its grown
// capacity kept (up to the retention cap).
func GetEncodeBuf() *[]byte { return encodeBufPool.Get().(*[]byte) }

// PutEncodeBuf recycles a buffer borrowed with GetEncodeBuf.
func PutEncodeBuf(b *[]byte) {
	if cap(*b) > maxEncodeRetain {
		return
	}
	*b = (*b)[:0]
	encodeBufPool.Put(b)
}

// AppendJSONFloat appends v exactly as encoding/json renders a float64
// (shortest form, 'e' notation outside [1e-6, 1e21) with the exponent's
// leading zero trimmed), so hand-rolled encoders stay byte-compatible
// with json.Encoder output for every finite value. Non-finite values —
// which JSON cannot represent, and which json.Encoder would abort the
// whole encode on — render as null so a streaming response degrades to
// valid NDJSON instead of corrupt bytes or a severed stream.
func AppendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(v)
	// Integral values below 2^53 print as their integer digits in the
	// shortest 'f' form, so they skip shortest-float formatting. Negative
	// zero is the one integral value whose form ("-0") an integer loses.
	if abs < 1<<53 && math.Float64bits(v) != 1<<63 {
		if iv := int64(v); float64(iv) == v {
			return strconv.AppendInt(dst, iv, 10)
		}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendResultFields appends the shared result-row JSON fields
// ("range" through "value", no surrounding braces), so every wire
// encoder of result rows — the JSONL writer here and the server's
// sequence-numbered stream rows — renders them from one place.
func AppendResultFields(dst []byte, rng, slide, start, end int64, key uint64, value float64) []byte {
	dst = append(dst, `"range":`...)
	dst = strconv.AppendInt(dst, rng, 10)
	dst = append(dst, `,"slide":`...)
	dst = strconv.AppendInt(dst, slide, 10)
	dst = append(dst, `,"start":`...)
	dst = strconv.AppendInt(dst, start, 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, end, 10)
	dst = append(dst, `,"key":`...)
	dst = strconv.AppendUint(dst, key, 10)
	dst = append(dst, `,"value":`...)
	dst = AppendJSONFloat(dst, value)
	return dst
}

// AppendResultJSONL appends one result row as a JSONL line (the
// jsonResult wire form, object plus trailing newline), byte-compatible
// with the json.Encoder path it replaces.
func AppendResultJSONL(dst []byte, rng, slide, start, end int64, key uint64, value float64) []byte {
	dst = append(dst, '{')
	dst = AppendResultFields(dst, rng, slide, start, end, key, value)
	dst = append(dst, '}', '\n')
	return dst
}

// AppendResultCSV appends one result row as a CSV line
// ("range,slide,start,end,key,value"), matching the fmt-based writer it
// replaces (%g float formatting).
func AppendResultCSV(dst []byte, rng, slide, start, end int64, key uint64, value float64) []byte {
	dst = strconv.AppendInt(dst, rng, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, slide, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, start, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, end, 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, key, 10)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, value, 'g', -1, 64)
	dst = append(dst, '\n')
	return dst
}

// NewLineScanner builds a scanner over r with a pooled line buffer; the
// returned put function recycles the buffer (call it when done with the
// scanner). The serving layer's streaming ingest shares it so every
// line-oriented decode path draws from one pool.
func NewLineScanner(r io.Reader) (sc *bufio.Scanner, put func()) {
	buf := scanBufPool.Get().(*[]byte)
	sc = bufio.NewScanner(r)
	sc.Buffer(*buf, maxLine)
	return sc, func() { scanBufPool.Put(buf) }
}

// ReadCSV parses "time,key,value" rows; see AppendCSV for the accepted
// syntax.
func ReadCSV(r io.Reader) ([]stream.Event, error) {
	sc, put := NewLineScanner(r)
	defer put()
	out, err := AppendCSV(nil, sc)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// flushEvery bounds how many encoded bytes accumulate in the pooled
// buffer before the batch writers hand them to the destination.
const flushEvery = 32 << 10

// WriteCSV writes events as "time,key,value" rows with a header.
func WriteCSV(w io.Writer, events []stream.Event) error {
	bufp := GetEncodeBuf()
	defer PutEncodeBuf(bufp)
	buf := append((*bufp)[:0], "time,key,value\n"...)
	for _, e := range events {
		buf = strconv.AppendInt(buf, e.Time, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.Key, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, e.Value, 'g', -1, 64)
		buf = append(buf, '\n')
		if len(buf) >= flushEvery {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	*bufp = buf
	_, err := w.Write(buf)
	return err
}

// ReadJSONL parses one JSON event object per line (DecodeEventJSON);
// blank lines are skipped.
func ReadJSONL(r io.Reader) ([]stream.Event, error) {
	var out []stream.Event
	sc, put := NewLineScanner(r)
	defer put()
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		e, err := DecodeEventJSON(text)
		if err != nil {
			return nil, fmt.Errorf("streamio: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("streamio: %w", err)
	}
	return out, nil
}

// WriteJSONL writes one JSON event object per line.
func WriteJSONL(w io.Writer, events []stream.Event) error {
	bufp := GetEncodeBuf()
	defer PutEncodeBuf(bufp)
	buf := (*bufp)[:0]
	for _, e := range events {
		// Batch writers fail loudly on unrepresentable values, like the
		// json.Encoder they replace — silently dumping null would corrupt
		// a dump/load round-trip (ReadJSONL reads null back as 0).
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			return fmt.Errorf("streamio: unsupported JSON value %v", e.Value)
		}
		buf = append(buf, `{"time":`...)
		buf = strconv.AppendInt(buf, e.Time, 10)
		buf = append(buf, `,"key":`...)
		buf = strconv.AppendUint(buf, e.Key, 10)
		buf = append(buf, `,"value":`...)
		buf = AppendJSONFloat(buf, e.Value)
		buf = append(buf, '}', '\n')
		if len(buf) >= flushEvery {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	*bufp = buf
	_, err := w.Write(buf)
	return err
}

// jsonResult is the JSONL wire form of a window result.
type jsonResult struct {
	Range int64   `json:"range"`
	Slide int64   `json:"slide"`
	Start int64   `json:"start"`
	End   int64   `json:"end"`
	Key   uint64  `json:"key"`
	Value float64 `json:"value"`
}

// WriteResultsCSV writes results as CSV with a header.
func WriteResultsCSV(w io.Writer, rs []stream.Result) error {
	bufp := GetEncodeBuf()
	defer PutEncodeBuf(bufp)
	buf := append((*bufp)[:0], "range,slide,start,end,key,value\n"...)
	for _, r := range rs {
		buf = AppendResultCSV(buf, r.W.Range, r.W.Slide, r.Start, r.End, r.Key, r.Value)
		if len(buf) >= flushEvery {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	*bufp = buf
	_, err := w.Write(buf)
	return err
}

// WriteResultsJSONL writes one JSON result object per line.
func WriteResultsJSONL(w io.Writer, rs []stream.Result) error {
	bufp := GetEncodeBuf()
	defer PutEncodeBuf(bufp)
	buf := (*bufp)[:0]
	for _, r := range rs {
		// Fail loudly on unrepresentable values (see WriteJSONL).
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			return fmt.Errorf("streamio: unsupported JSON value %v", r.Value)
		}
		buf = AppendResultJSONL(buf, r.W.Range, r.W.Slide, r.Start, r.End, r.Key, r.Value)
		if len(buf) >= flushEvery {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	*bufp = buf
	_, err := w.Write(buf)
	return err
}

// AppendResultFrame appends one binary columnar result frame (the
// wire-package layout) carrying rs, with row 0's sequence number
// firstSeq — the kernel behind the server's binary result stream and
// the batch writer below.
func AppendResultFrame(dst []byte, firstSeq int64, rs []stream.Result) []byte {
	enc := wire.BeginResultFrame(dst, 0, firstSeq, len(rs))
	for i := range rs {
		enc.SetRow(i, rs[i].W.Range, rs[i].W.Slide, rs[i].Start, rs[i].End, rs[i].Key, rs[i].Value)
	}
	return enc.Bytes()
}

// frameChunk is how many rows one binary frame carries in the batch
// writers; large dumps become a sequence of bounded frames instead of
// one giant allocation.
const frameChunk = 8192

// WriteBinary writes events as a sequence of binary columnar frames.
// Unlike the JSON writers it carries every float64 bit pattern,
// non-finite values included.
func WriteBinary(w io.Writer, events []stream.Event) error {
	bufp := GetEncodeBuf()
	defer PutEncodeBuf(bufp)
	for len(events) > 0 {
		n := min(len(events), frameChunk)
		buf := wire.AppendEventFrame((*bufp)[:0], events[:n])
		*bufp = buf
		if _, err := w.Write(buf); err != nil {
			return err
		}
		events = events[n:]
	}
	return nil
}

// ReadBinary reads a stream of binary columnar event frames until EOF.
func ReadBinary(r io.Reader) ([]stream.Event, error) {
	fr := wire.NewReader(r)
	defer fr.Close()
	var out []stream.Event
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("streamio: %w", err)
		}
		if f.Kind != wire.KindEvents {
			return nil, fmt.Errorf("streamio: unexpected frame kind %d in event stream", f.Kind)
		}
		out = f.AppendEvents(out)
	}
}

// WriteResultsBinary writes results as binary columnar frames; sequence
// numbers restart at 0 (file dumps have no ring to resume against).
func WriteResultsBinary(w io.Writer, rs []stream.Result) error {
	bufp := GetEncodeBuf()
	defer PutEncodeBuf(bufp)
	seq := int64(0)
	for len(rs) > 0 {
		n := min(len(rs), frameChunk)
		buf := AppendResultFrame((*bufp)[:0], seq, rs[:n])
		*bufp = buf
		if _, err := w.Write(buf); err != nil {
			return err
		}
		seq += int64(n)
		rs = rs[n:]
	}
	return nil
}

// ReadEvents dispatches on format ("csv", "jsonl" or "binary") and
// optionally validates ordering.
func ReadEvents(r io.Reader, format string, validate bool) ([]stream.Event, error) {
	var (
		events []stream.Event
		err    error
	)
	switch strings.ToLower(format) {
	case "csv", "":
		events, err = ReadCSV(r)
	case "jsonl", "json":
		events, err = ReadJSONL(r)
	case "binary", "frame":
		events, err = ReadBinary(r)
	default:
		return nil, fmt.Errorf("streamio: unknown format %q", format)
	}
	if err != nil {
		return nil, err
	}
	if validate {
		if err := stream.Validate(events); err != nil {
			return nil, err
		}
	}
	return events, nil
}
