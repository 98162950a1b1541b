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
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// range, or malformed syntax. The predicted layout is tried first; on
// its first mismatch the general loop scans the object from its start.
func scanEventObject(b []byte, i int) (e stream.Event, end int, ok bool) {
	if e, end, ok = scanPredicted(b, i); ok {
		return e, end, true
	}
	return scanGeneral(b, i)
}

// The literals of the predicted layout, as little-endian words: the
// 8-byte `{"time":`, the 7-byte `,"key":` (its word's top byte is
// whatever follows), and the last 8 bytes of the 9-byte `,"value":`.
var (
	litTime  = le64(`{"time":`)
	litKey   = le64(`,"key":` + "\x00")
	litValue = le64(`"value":`)
)

const (
	lowBytes7 = 1<<56 - 1          // the low 7 bytes of a word
	ascii0s   = 0x3030303030303030 // '0' in every byte
	hiNibbles = 0xF0F0F0F0F0F0F0F0
)

func le64(s string) uint64 { return binary.LittleEndian.Uint64([]byte(s)) }

// scanPredicted scans the exact layout clients send,
// {"time":<int>,"key":<uint>,"value":<int>} with no whitespace, where
// value has at most 15 digits: each literal is one word compare and the
// digits are validated and accumulated eight at a time. Every shape it
// accepts the general loop accepts too, with the same event and end;
// anything else — a fraction, a leading zero, a 16-digit value, a space —
// is a mismatch, and it reports ok false without judging the input.
func scanPredicted(b []byte, i int) (e stream.Event, end int, ok bool) {
	if i+8 > len(b) || binary.LittleEndian.Uint64(b[i:]) != litTime {
		return e, 0, false
	}
	// b holds at least 8 bytes from here on, which load8 relies on.
	p := i + 8
	mag, neg, p, ok := scanPredictedInt(b, p)
	if !ok || load8(b, p)&lowBytes7 != litKey {
		return e, 0, false
	}
	switch {
	case !neg && mag <= math.MaxInt64:
		e.Time = int64(mag)
	case neg && mag <= 1<<63:
		e.Time = -int64(mag) // −(1<<63) wraps to MinInt64, the value it names
	default:
		return e, 0, false
	}
	if e.Key, neg, p, ok = scanPredictedInt(b, p+7); !ok || neg {
		return e, 0, false
	}
	if p+9 > len(b) || b[p] != ',' || binary.LittleEndian.Uint64(b[p+1:]) != litValue {
		return e, 0, false
	}
	if mag, neg, p, ok = scanPredictedInt(b, p+9); !ok || mag >= 1e15 || p >= len(b) || b[p] != '}' {
		return e, 0, false
	}
	// Below 10^15 < 2^53 the conversion is exact; negating afterwards
	// keeps "-0" a negative zero, as parseFloat has it.
	if e.Value = float64(mag); neg {
		e.Value = -e.Value
	}
	return e, p + 1, true
}

// scanPredictedInt reads -?(0|[1-9][0-9]*) of at most 19 digits at b[p]
// and returns its magnitude, its sign and the index one past it. ok is
// false for a missing or over-long digit run and for a leading zero.
func scanPredictedInt(b []byte, p int) (mag uint64, neg bool, end int, ok bool) {
	if p < len(b) && b[p] == '-' {
		neg, p = true, p+1
	}
	w := load8(b, p)
	lead0 := byte(w) == '0'
	for n := 0; ; n += 8 {
		if m := nonDigits(w); m != 0 {
			d := bits.TrailingZeros64(m) / 8
			if n += d; n == 0 || n > 19 || lead0 && n > 1 {
				return 0, neg, 0, false
			}
			if d > 0 {
				// The run's last d digits: shifted to the word's top, their
				// leading positions fill with zero digits.
				mag = mag*pow10[d&7] + eightDigits((w-ascii0s)<<(uint(64-8*d)&63))
			}
			return mag, neg, p + n, true
		}
		if n == 16 { // 24 digits and counting
			return 0, neg, 0, false
		}
		mag = mag*1e8 + eightDigits(w-ascii0s)
		w = load8(b, p+n+8)
	}
}

// load8 returns the eight bytes at b[p] as a little-endian word; past
// the end of b the word reads zero bytes, which are not digits. It needs
// len(b) >= 8 and p <= len(b).
func load8(b []byte, p int) uint64 {
	if p+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[p:])
	}
	return binary.LittleEndian.Uint64(b[len(b)-8:]) >> (8 * uint(p+8-len(b)))
}

// nonDigits has a nonzero byte wherever w's byte is not an ASCII digit:
// a digit's high nibble is 3 both as is and after adding 6. A byte whose
// +6 carries into its neighbour is itself no digit, so the lowest flagged
// byte — the first non-digit — is always exact.
func nonDigits(w uint64) uint64 {
	return (w&hiNibbles ^ ascii0s) | ((w+0x0606060606060606)&hiNibbles ^ ascii0s)
}

// eightDigits converts eight digit values (0..9, the most significant in
// the lowest byte) to their number: adjacent digits pair into bytes, and
// one multiply each folds the pairs into two four-digit halves and the
// halves into the result.
func eightDigits(x uint64) uint64 {
	x = x*10 + x>>8
	return ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

// scanGeneral is scanEventObject's general loop: the fields in any
// order, repeated or absent, with JSON whitespace around every token and
// any number literal its field's type holds exactly.
func scanGeneral(b []byte, i int) (e stream.Event, end int, ok bool) {
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
