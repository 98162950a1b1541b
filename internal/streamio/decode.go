// The text event decode kernel: every text ingest path — JSONL lines,
// JSON array bodies, CSV rows — decodes through the hand-written
// scanners here, which run without reflection or heap allocation.
//
// The JSON scanner recognises only the strict common shape. Anything
// else is not its error to report: the input goes to encoding/json
// unchanged, so the set of accepted inputs, the decoded values and every
// error string are exactly encoding/json's.

package streamio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"factorwindows/internal/stream"
)

// jsonEvent is the JSON wire form of an event, as encoding/json sees it
// on the kernel's fallback path.
type jsonEvent struct {
	Time  int64   `json:"time"`
	Key   uint64  `json:"key"`
	Value float64 `json:"value"`
}

// DecodeEventJSON decodes one JSON event object, exactly as
// json.Unmarshal into a struct with the fields "time" (int64), "key"
// (uint64) and "value" (float64) would: same accepted inputs, same
// values bit for bit, same errors. Objects in the common shape — the
// lowercase keys in any order, plain number literals, optional JSON
// whitespace — never reach encoding/json and decode without allocating.
func DecodeEventJSON(line []byte) (stream.Event, error) {
	if e, end, ok := scanEventObject(line, skipJSONSpace(line, 0)); ok && skipJSONSpace(line, end) == len(line) {
		return e, nil
	}
	var je jsonEvent
	err := json.Unmarshal(line, &je)
	return stream.Event{Time: je.Time, Key: je.Key, Value: je.Value}, err
}

// AppendJSONArray reads r to its end and appends the events of the JSON
// array it carries to dst, exactly as a json.Decoder decoding one
// []event value would: bytes after the array's closing bracket are
// ignored, a read error (a body cap, say) surfaces only when it cuts the
// array short, and nothing is appended unless the whole array decodes.
// Arrays whose elements are all in DecodeEventJSON's common shape are
// walked in place; the first element that is not sends the buffered body
// through the json.Decoder instead.
func AppendJSONArray(dst []stream.Event, r io.Reader) ([]stream.Event, error) {
	bufp := GetEncodeBuf()
	defer PutEncodeBuf(bufp)
	body := bytes.NewBuffer((*bufp)[:0])
	_, rerr := body.ReadFrom(r)
	*bufp = body.Bytes()
	if out, ok := scanEventArray(dst, body.Bytes()); ok {
		return out, nil
	}
	if rerr == nil {
		rerr = io.EOF
	}
	var evs []jsonEvent
	if err := json.NewDecoder(io.MultiReader(body, errReader{rerr})).Decode(&evs); err != nil {
		return dst, err
	}
	for _, e := range evs {
		dst = append(dst, stream.Event{Time: e.Time, Key: e.Key, Value: e.Value})
	}
	return dst, nil
}

// errReader replays the error that ended a buffered read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanEventArray appends the elements of the JSON array leading b to
// dst. ok is false — and the returned slice is dst, unextended — unless
// the array is complete and every element is in the common shape.
func scanEventArray(dst []stream.Event, b []byte) (out []stream.Event, ok bool) {
	i := skipJSONSpace(b, 0)
	if i >= len(b) || b[i] != '[' {
		return dst, false
	}
	i = skipJSONSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return dst, true
	}
	out = dst
	for {
		e, end, ok := scanEventObject(b, i)
		if !ok {
			return dst, false
		}
		out = append(out, e)
		i = skipJSONSpace(b, end)
		if i >= len(b) {
			return dst, false
		}
		switch b[i] {
		case ',':
			i = skipJSONSpace(b, i+1)
		case ']':
			return out, true
		default:
			return dst, false
		}
	}
}

// scanEventObject scans one event object starting at b[i] and returns
// the index one past its closing brace. ok is false for anything outside
// the common shape: a key other than exactly "time", "key" or "value", a
// value that is not a plain JSON number literal of the field's type and
// range, or malformed syntax.
func scanEventObject(b []byte, i int) (e stream.Event, end int, ok bool) {
	if i >= len(b) || b[i] != '{' {
		return e, 0, false
	}
	i = skipJSONSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return e, i + 1, true
	}
	for {
		var field byte
		switch rest := b[i:]; {
		case len(rest) >= 6 && string(rest[:6]) == `"time"`:
			field, i = 't', i+6
		case len(rest) >= 5 && string(rest[:5]) == `"key"`:
			field, i = 'k', i+5
		case len(rest) >= 7 && string(rest[:7]) == `"value"`:
			field, i = 'v', i+7
		default:
			return e, 0, false
		}
		i = skipJSONSpace(b, i)
		if i >= len(b) || b[i] != ':' {
			return e, 0, false
		}
		i = skipJSONSpace(b, i+1)
		j, integer := scanJSONNumber(b, i)
		if j == i {
			return e, 0, false
		}
		num := b[i:j]
		if field != 'v' && !integer {
			return e, 0, false
		}
		switch field {
		case 't':
			t, ok := parseInt(num)
			if !ok {
				return e, 0, false
			}
			e.Time = t
		case 'k':
			mag, neg, ok := parseDecimal(num)
			if !ok || neg {
				return e, 0, false
			}
			e.Key = mag
		case 'v':
			v, err := parseFloat(num)
			if err != nil {
				return e, 0, false
			}
			e.Value = v
		}
		i = skipJSONSpace(b, j)
		if i >= len(b) {
			return e, 0, false
		}
		switch b[i] {
		case ',':
			i = skipJSONSpace(b, i+1)
		case '}':
			return e, i + 1, true
		default:
			return e, 0, false
		}
	}
}

// skipJSONSpace returns the index of the first byte at or after b[i]
// that is not JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanJSONNumber returns the index one past the JSON number literal
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) starting at b[i] — i
// itself when there is none — and whether the literal is an integer
// (neither fraction nor exponent).
func scanJSONNumber(b []byte, i int) (end int, integer bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && isDigit(b[j]):
		for j++; j < len(b) && isDigit(b[j]); j++ {
		}
	default:
		return i, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		k := j + 1
		for k < len(b) && isDigit(b[k]) {
			k++
		}
		if k == j+1 {
			return i, false
		}
		j, integer = k, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		digits := k
		for k < len(b) && isDigit(b[k]) {
			k++
		}
		if k == digits {
			return i, false
		}
		j, integer = k, false
	}
	return j, integer
}

// parseDecimal parses -?[0-9]+ into magnitude and sign. ok is false for
// any other syntax and for magnitudes beyond uint64; callers then let
// strconv (or encoding/json) decide what the text means.
func parseDecimal(b []byte) (mag uint64, neg, ok bool) {
	if len(b) > 0 && b[0] == '-' {
		neg, b = true, b[1:]
	}
	// 19 digits always fit; a 20th needs the overflow check.
	if len(b) == 0 || len(b) > 20 {
		return 0, neg, false
	}
	for k, c := range b {
		if !isDigit(c) {
			return 0, neg, false
		}
		d := uint64(c - '0')
		if k == 19 && mag > (math.MaxUint64-d)/10 {
			return 0, neg, false
		}
		mag = mag*10 + d
	}
	return mag, neg, true
}

// parseInt is parseDecimal narrowed to the int64 range.
func parseInt(b []byte) (int64, bool) {
	mag, neg, ok := parseDecimal(b)
	switch {
	case !ok:
		return 0, false
	case !neg && mag <= math.MaxInt64:
		return int64(mag), true
	case neg && mag <= 1<<63:
		return -int64(mag), true
	}
	return 0, false
}

// parseFloat is strconv.ParseFloat(string(b), 64) with an exact fast
// path: an integer of at most 15 digits is below 2^53, so converting it
// is the correctly rounded result (negating afterwards keeps "-0" a
// negative zero, as ParseFloat has it).
func parseFloat(b []byte) (float64, error) {
	if mag, neg, ok := parseDecimal(b); ok && mag < 1e15 {
		v := float64(mag)
		if neg {
			v = -v
		}
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

var (
	utf8BOM  = []byte{0xEF, 0xBB, 0xBF}
	csvComma = []byte{','}
)

// AppendCSV parses the "time,key,value" rows sc yields onto dst. Blank
// lines are skipped, a leading UTF-8 byte order mark is dropped, and the
// first non-blank line is treated as a header when it starts with "time"
// (in any case). Rows decode from the scanner's bytes in place.
func AppendCSV(dst []stream.Event, sc *bufio.Scanner) ([]stream.Event, error) {
	first := true // no non-blank line seen yet
	for line := 1; sc.Scan(); line++ {
		row := sc.Bytes()
		if line == 1 {
			row = bytes.TrimPrefix(row, utf8BOM)
		}
		row = bytes.TrimSpace(row)
		if len(row) == 0 {
			continue
		}
		if first {
			first = false
			if len(row) >= 4 && bytes.EqualFold(row[:4], []byte("time")) {
				continue
			}
		}
		e, err := decodeCSVEvent(row)
		if err != nil {
			return dst, fmt.Errorf("streamio: line %d: %w", line, err)
		}
		dst = append(dst, e)
	}
	if err := sc.Err(); err != nil {
		return dst, fmt.Errorf("streamio: %w", err)
	}
	return dst, nil
}

// decodeCSVEvent parses one trimmed "time,key,value" row. Fields take
// exactly what strconv.ParseInt, ParseUint and ParseFloat take: the
// in-place parsers handle plain decimals and defer everything else —
// signs, hex floats, "inf", and every error — to strconv itself.
func decodeCSVEvent(row []byte) (stream.Event, error) {
	var e stream.Event
	if n := bytes.Count(row, csvComma) + 1; n != 3 {
		return e, fmt.Errorf("want time,key,value; got %d fields", n)
	}
	c1 := bytes.IndexByte(row, ',')
	c2 := c1 + 1 + bytes.IndexByte(row[c1+1:], ',')
	field := bytes.TrimSpace(row[:c1])
	t, ok := parseInt(field)
	if !ok {
		var err error
		if t, err = strconv.ParseInt(string(field), 10, 64); err != nil {
			return e, fmt.Errorf("time: %v", err)
		}
	}
	field = bytes.TrimSpace(row[c1+1 : c2])
	k, neg, ok := parseDecimal(field)
	if !ok || neg {
		var err error
		if k, err = strconv.ParseUint(string(field), 10, 64); err != nil {
			return e, fmt.Errorf("key: %v", err)
		}
	}
	v, err := parseFloat(bytes.TrimSpace(row[c2+1:]))
	if err != nil {
		return e, fmt.Errorf("value: %v", err)
	}
	return stream.Event{Time: t, Key: k, Value: v}, nil
}
