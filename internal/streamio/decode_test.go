package streamio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"factorwindows/internal/stream"
)

// eventJSONSeeds covers the kernel's fast path and one input per class
// it hands to encoding/json.
var eventJSONSeeds = []string{
	`{"time":1,"key":7,"value":21.5}`,
	`{"value":-3,"time":0,"key":18446744073709551615}`,
	`{"time":-9223372036854775808}`,
	`{"Time":1}`, `{"time":1}`, `{"time":null}`, `{"time":1.0}`, `{"time":1e3}`,
	`{"time":01}`, `{"key":-1}`, `{"key":18446744073709551616}`,
	`{"time":9223372036854775808}`, `{"time":-9223372036854775809}`,
	`{"value":+1}`, `{"value":.5}`, `{"value":1.}`, `{"value":0x1p3}`,
	`{"value":1e999}`, `{"value":-0}`, `{"value":4.9e-324}`,
	`{"value":123456789012345678}`, `{"value":999999999999999}`, `{"value":1E+2}`,
	`{"time":1,"time":2}`, `{"x":{"time":9},"time":1}`, `{"time":"1"}`,
	`{"time":1}`, `{"time":1,}`, `{"time" 1}`, `{"time":1`, `{"time":-}`,
	`{}`, ` { "time" : 1 } `, "\t{\"key\":2}\r\n", `{"time":1}x`, `[1]`, `null`, ``,
}

// predictedSeeds are the predicted layout's edges: a leading zero right
// after each literal, digit runs on both sides of each 8-byte word, signs
// without digits, the 15-digit value limit, a fraction or exponent just
// past a full word, a line cut inside each literal, and a space before
// the brace.
func predictedSeeds() []string {
	seeds := []string{
		`{"time":0,"key":0,"value":0}`,
		`{"time":01,"key":1,"value":1}`, `{"time":1,"key":01,"value":1}`, `{"time":1,"key":1,"value":01}`,
		`{"time":-0,"key":1,"value":-0}`, `{"time":1,"key":-0,"value":1}`,
		`{"time":-,"key":1,"value":1}`, `{"time":1,"key":-,"value":1}`, `{"time":1,"key":1,"value":-}`,
		`{"time":1,"key":1,"value":123456789012345}`, `{"time":1,"key":1,"value":-123456789012345}`,
		`{"time":1,"key":1,"value":1234567890123456}`,
		`{"time":1,"key":1,"value":12345678.5}`, `{"time":1,"key":1,"value":12345678e3}`,
		`{"time":12345678.5,"key":1,"value":1}`, `{"time":1,"key":12345678E1,"value":1}`,
		`{"tim`, `{"time":1,"ke`, `{"time":1,"key":2,"val`, `{"time":1,"key":2,"value"`, `{"time":1,"key":2,"value":3`,
		`{"time":1,"key":2,"value":3 }`, `{"time":1,"key":2,"value":3}` + "\n",
		`{"time":9223372036854775807,"key":18446744073709551615,"value":1}`,
		`{"time":-9223372036854775808,"key":9999999999999999999,"value":1}`,
	}
	for _, n := range []int{7, 8, 9, 16, 19, 20} {
		digits := strings.Repeat("9", n)
		seeds = append(seeds,
			`{"time":`+digits+`,"key":1,"value":1}`,
			`{"time":-`+digits+`,"key":1,"value":1}`,
			`{"time":1,"key":`+digits+`,"value":1}`,
			`{"time":1,"key":1,"value":`+digits+`}`,
			`{"time":1,"key":1,"value":-`+digits+`}`,
		)
	}
	return seeds
}

// FuzzDecodeEventJSON is the kernel's differential test: on every input
// it must agree with json.Unmarshal into the wire struct — same
// accept/reject, same error text, same Time and Key, same Value bits.
// Whatever the predicted layout accepts, the general loop must accept
// with the identical event and end.
func FuzzDecodeEventJSON(f *testing.F) {
	for _, s := range append(eventJSONSeeds, predictedSeeds()...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		i := skipJSONSpace(line, 0)
		if pe, pend, ok := scanPredicted(line, i); ok {
			ge, gend, gok := scanGeneral(line, i)
			if !gok || pend != gend || pe.Time != ge.Time || pe.Key != ge.Key || math.Float64bits(pe.Value) != math.Float64bits(ge.Value) {
				t.Fatalf("%q: predicted %+v end %d, general %+v end %d (ok=%v)", line, pe, pend, ge, gend, gok)
			}
		}
		var want jsonEvent
		wantErr := json.Unmarshal(line, &want)
		got, gotErr := DecodeEventJSON(line)
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: kernel error %v, encoding/json error %v", line, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.Time != want.Time || got.Key != want.Key || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("%q: kernel %+v, encoding/json %+v", line, got, want)
		}
	})
}

// FuzzAppendJSONFloat pins the encoder to json.Marshal byte for byte on
// every finite value, the integer fast path included.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53),
		1e20, 1e21, 1e-7, 0.1, 5e-324, 1, -1, 42, 0.25, 123456.75, 1e15, -1e15,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONFloat(%v) = %s, json.Marshal = %s", v, got, want)
		}
	})
}

// The fast path must actually take the common shapes (the fuzz target
// cannot tell the kernel from its fallback) and must not allocate.
func TestDecodeEventJSONFastPath(t *testing.T) {
	cases := map[string]stream.Event{
		`{"time":12,"key":7,"value":21.5}`:              {Time: 12, Key: 7, Value: 21.5},
		`{"value":-3,"key":7,"time":12}`:                {Time: 12, Key: 7, Value: -3},
		` { "time" : 12 , "key" : 7 , "value" : 1e2 } `: {Time: 12, Key: 7, Value: 100},
		`{"time":1,"time":2}`:                           {Time: 2},
		`{}`:                                            {},
	}
	for in, want := range cases {
		line := []byte(in)
		got, end, ok := scanEventObject(line, skipJSONSpace(line, 0))
		if !ok || got != want || skipJSONSpace(line, end) != len(line) {
			t.Errorf("%s: scanned %+v (ok=%v, end=%d), want %+v", in, got, ok, end, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { DecodeEventJSON(line) }); allocs != 0 {
			t.Errorf("%s: %v allocs per decode, want 0", in, allocs)
		}
	}
	// The layout clients send takes the predicted path, digit runs on
	// both sides of a word included.
	for in, want := range map[string]stream.Event{
		`{"time":12,"key":7,"value":21}`:                                       {Time: 12, Key: 7, Value: 21},
		`{"time":-1234567890123,"key":123456789,"value":-999999999999999}`:     {Time: -1234567890123, Key: 123456789, Value: -999999999999999},
		`{"time":1234567812345678,"key":1234567812345678123,"value":12345678}`: {Time: 1234567812345678, Key: 1234567812345678123, Value: 12345678},
		`{"time":-9223372036854775808,"key":9999999999999999999,"value":-0}`:   {Time: math.MinInt64, Key: 9999999999999999999},
	} {
		line := []byte(in)
		got, end, ok := scanPredicted(line, 0)
		if !ok || got != want || end != len(line) {
			t.Errorf("%s: predicted %+v (ok=%v, end=%d), want %+v", in, got, ok, end, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { DecodeEventJSON(line) }); allocs != 0 {
			t.Errorf("%s: %v allocs per decode, want 0", in, allocs)
		}
	}
}

// FuzzAppendJSONArray pins AppendJSONArray to a json.Decoder decoding
// one []event value: same accept/reject, same error text, same events
// with the same Value bits, and nothing appended on an error. Elements
// in the predicted layout are followed by ',' here rather than a line end.
func FuzzAppendJSONArray(f *testing.F) {
	for _, s := range []string{
		`[{"time":1,"key":2,"value":3},{"time":4,"key":5,"value":6}]`,
		`[{"time":12345678,"key":123456789,"value":-0},{"time":1,"key":2,"value":3.5}]`,
		`[{"time":1,"key":2,"value":1234567890123456},{"time":01,"key":2,"value":3}]`,
		` [ {"time":1,"key":2,"value":3} ,` + "\n" + `{"value":3,"key":2,"time":1} ] tail`,
		`[{"time":1,"key":2,"value":3 },{"time":1,"key":2,"value":3}]`,
		`[{"time":1,"key":2,"value":3},{"time":1,"key":2,"value":3}`,
		`[{"time":1,"key":2,"value":3},{"time":1,"key":2,"val`,
		`[{"time":1,"key":-2,"value":3}]`, `[{"time":1,"key":2,"value":3}x]`,
		`[{"time":1,"key":2,"value":3},]`, `[{"time":1,"key":2,"value":3,"unit":"C"}]`,
		`[]`, `null`, ``, `{}`, `[1]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want []jsonEvent
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		pre := []stream.Event{{Time: 9}}
		got, gotErr := AppendJSONArray(pre, bytes.NewReader(body))
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: AppendJSONArray error %v, json.Decoder error %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			if len(got) != len(pre) {
				t.Fatalf("%q: %d events appended on error", body, len(got)-len(pre))
			}
			return
		}
		if len(got) != len(pre)+len(want) {
			t.Fatalf("%q: %d events, json.Decoder %d", body, len(got)-len(pre), len(want))
		}
		for i, w := range want {
			g := got[len(pre)+i]
			if g.Time != w.Time || g.Key != w.Key || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Fatalf("%q: event %d is %+v, json.Decoder %+v", body, i, g, w)
			}
		}
	})
}

// BenchmarkDecodeNDJSONBody measures the server's NDJSON ingest loop —
// line scanner, trim, decode, append — over a body of 8,192 lines in the
// shape the bench's text workload sends: 512 events a tick, keys below
// 4,096, integer values below 1,000.
func BenchmarkDecodeNDJSONBody(b *testing.B) {
	const lines = 8192
	var body []byte
	for i := range lines {
		body = append(body, `{"time":`...)
		body = strconv.AppendInt(body, int64(40000+i/512), 10)
		body = append(body, `,"key":`...)
		body = strconv.AppendUint(body, uint64(i*2654435761%4096), 10)
		body = append(body, `,"value":`...)
		body = strconv.AppendInt(body, int64(i*7919%1000), 10)
		body = append(body, '}', '\n')
	}
	batch := make([]stream.Event, 0, lines)
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.Reset(body)
		sc, put := NewLineScanner(r)
		batch = batch[:0]
		for sc.Scan() {
			e, err := DecodeEventJSON(bytes.TrimSpace(sc.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			batch = append(batch, e)
		}
		put()
		if len(batch) != lines {
			b.Fatalf("decoded %d events, want %d", len(batch), lines)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/event")
}

func TestAppendJSONArray(t *testing.T) {
	want := []stream.Event{{Time: 1, Key: 2, Value: 3.5}, {Time: 4}}
	for _, in := range []string{
		`[{"time":1,"key":2,"value":3.5},{"time":4}]`,
		" [ {\"value\":3.5,\"key\":2,\"time\":1} ,\n {\"time\":4} ] trailing bytes are ignored",
		`[{"Time":1,"key":2,"value":3.5},{"time":4,"unit":"C"}]`, // fallback
		`[{"time":1,"key":2,"value":3.5},{"time":4,"key":null}]`, // fast, then fallback
	} {
		got, err := AppendJSONArray(nil, strings.NewReader(in))
		if err != nil || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: got %v, %v", in, got, err)
		}
	}
	for _, in := range []string{`[]`, `null`, ` [ ] `} {
		if got, err := AppendJSONArray(nil, strings.NewReader(in)); err != nil || len(got) != 0 {
			t.Errorf("%s: got %v, %v", in, got, err)
		}
	}
	// Errors are the json.Decoder's, and nothing is appended on any of them.
	pre := []stream.Event{{Time: 9}}
	for in, wantErr := range map[string]string{
		``:                         "EOF",
		`[{"time":1},{"time":2}`:   "unexpected EOF",
		`[{"time":1},{"time":x}]`:  "invalid character 'x' looking for beginning of value",
		`[{"time":1},{"time":""}]`: "json: cannot unmarshal string into Go struct field jsonEvent.time of type int64",
		`{"time":1}`:               "json: cannot unmarshal object into Go value of type []streamio.jsonEvent",
	} {
		got, err := AppendJSONArray(pre, strings.NewReader(in))
		if err == nil || err.Error() != wantErr || len(got) != 1 {
			t.Errorf("%s: got %v, error %v, want error %q", in, got, err, wantErr)
		}
	}
	// A read error matters only when it cuts the array short.
	boom := errors.New("boom")
	cut := func(s string) *cutReader { return &cutReader{data: []byte(s), err: boom} }
	if got, err := AppendJSONArray(nil, cut(`[{"time":1}]`)); err != nil || len(got) != 1 {
		t.Errorf("complete array before a read error: got %v, %v", got, err)
	}
	if _, err := AppendJSONArray(nil, cut(`[{"time":1},`)); !errors.Is(err, boom) {
		t.Errorf("array cut by a read error: got %v, want %v", err, boom)
	}
}

// cutReader yields data, then err.
type cutReader struct {
	data []byte
	err  error
}

func (c *cutReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, c.err
	}
	n := copy(p, c.data)
	c.data = c.data[n:]
	return n, nil
}

// referenceCSVEvent is the strings-based row parser decodeCSVEvent
// replaced, kept as the oracle for what a row means and how its errors
// read.
func referenceCSVEvent(text string) (stream.Event, error) {
	var e stream.Event
	fields := strings.Split(text, ",")
	if len(fields) != 3 {
		return e, fmt.Errorf("want time,key,value; got %d fields", len(fields))
	}
	t, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil {
		return e, fmt.Errorf("time: %v", err)
	}
	k, err := strconv.ParseUint(strings.TrimSpace(fields[1]), 10, 64)
	if err != nil {
		return e, fmt.Errorf("key: %v", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
	if err != nil {
		return e, fmt.Errorf("value: %v", err)
	}
	return stream.Event{Time: t, Key: k, Value: v}, nil
}

// FuzzDecodeCSVEvent: the byte-index row decoder accepts exactly what
// the strconv-based one did, with the same values and error text.
func FuzzDecodeCSVEvent(f *testing.F) {
	for _, s := range []string{
		"5,7,1.5", " 5 , 7 , 1.5 ", "-5,7,-0", "+5,7,+1", "007,08,009", "5,+7,1", "5,-0,1",
		"9223372036854775807,18446744073709551615,1e308", "9223372036854775808,1,1",
		"-9223372036854775808,1,1", "-9223372036854775809,1,1", "1,18446744073709551616,1",
		"1,2,inf", "1,2,NaN", "1,2,0x1p3", "1,2,1_0", "1_0,2,3", "0x10,2,3", "1,2,1e999",
		"1,2,123456789012345678", "1,2,999999999999999", "1,2,.5", "1,2,5.",
		"1\u00a0,\u00a02,\u20033", "1,2", "1,2,3,4", ",,", "", "x,2,3", "1,y,3", "1,2,z", "-,2,3",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, row []byte) {
		want, wantErr := referenceCSVEvent(string(row))
		got, gotErr := decodeCSVEvent(row)
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: decoder error %v, reference error %v", row, gotErr, wantErr)
		}
		if wantErr == nil && (got.Time != want.Time || got.Key != want.Key ||
			math.Float64bits(got.Value) != math.Float64bits(want.Value)) {
			t.Fatalf("%q: decoder %+v, reference %+v", row, got, want)
		}
	})
}
