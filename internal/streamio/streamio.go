// Package streamio reads and writes event streams in the formats the
// command-line tools speak: CSV ("time,key,value" rows, optional
// header), JSON Lines (one object per line), and the binary columnar
// frames of internal/wire. Readers validate ordering on request so
// executors can rely on the in-order contract. Result sets are written
// as CSV; the JSON result-row renderers here serve the server's
// run-native stream encoder.
package streamio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
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

// digitPairs holds "00".."99": AppendUint writes two digits per
// division.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 is indexed by digit count − 1.
var pow10 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// AppendUint appends v in decimal, byte-identical to strconv.AppendUint
// base 10. It sizes the number first and writes the digits straight
// into dst, two per division — strconv formats into a scratch array
// and copies, which on the result egress path (seven integers per row)
// was the largest single cost.
func AppendUint(dst []byte, v uint64) []byte {
	// ⌊log10⌋ from the bit length (1233/4096 ≈ log10 2), corrected by one
	// table compare.
	n := bits.Len64(v) * 1233 >> 12
	if v >= pow10[n] {
		n++
	}
	n = max(n, 1) // 0 is one digit
	end := len(dst) + n
	dst = slices.Grow(dst, n)[:end]
	i := end
	for v >= 100 {
		q := v / 100
		d := 2 * (v - 100*q)
		i -= 2
		dst[i], dst[i+1] = digitPairs[d], digitPairs[d+1]
		v = q
	}
	if v >= 10 {
		dst[i-2], dst[i-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		dst[i-1] = '0' + byte(v)
	}
	return dst
}

// AppendInt is AppendUint for signed values, byte-identical to
// strconv.AppendInt base 10.
func AppendInt(dst []byte, v int64) []byte {
	if v < 0 {
		return AppendUint(append(dst, '-'), -uint64(v)) // −MinInt64 wraps to 1<<63, its magnitude
	}
	return AppendUint(dst, uint64(v))
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
			return AppendInt(dst, iv)
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

// AppendWindowFields appends the result-row fields that are constant
// across one window instance's rows, `"range":` through `"key":` with
// the key itself left to AppendKeyValue. It is the one renderer of these
// fields: AppendResultFields calls it per row, and the server's stream
// encoder once per run of rows it is handed (the span is at most 120
// bytes: 40 of names and four 20-byte integers).
func AppendWindowFields(dst []byte, rng, slide, start, end int64) []byte {
	dst = append(dst, `"range":`...)
	dst = AppendInt(dst, rng)
	dst = append(dst, `,"slide":`...)
	dst = AppendInt(dst, slide)
	dst = append(dst, `,"start":`...)
	dst = AppendInt(dst, start)
	dst = append(dst, `,"end":`...)
	dst = AppendInt(dst, end)
	return append(dst, `,"key":`...)
}

// AppendKeyValue finishes a result row's fields after AppendWindowFields.
func AppendKeyValue(dst []byte, key uint64, value float64) []byte {
	dst = AppendUint(dst, key)
	dst = append(dst, `,"value":`...)
	return AppendJSONFloat(dst, value)
}

// AppendResultFields appends the shared result-row JSON fields
// ("range" through "value", no surrounding braces). Encoders of many
// rows that share a window instance render AppendWindowFields once per
// run and AppendKeyValue per row, which gives the same bytes.
func AppendResultFields(dst []byte, rng, slide, start, end int64, key uint64, value float64) []byte {
	return AppendKeyValue(AppendWindowFields(dst, rng, slide, start, end), key, value)
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

// frameChunk is how many events one binary frame carries in WriteBinary;
// large dumps become a sequence of bounded frames instead of
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
