package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
	"factorwindows/internal/wire"
)

// equivCodec encodes one ingest batch in one supported Content-Type.
type equivCodec struct {
	name        string
	contentType string
	encode      func(*bytes.Buffer, []stream.Event)
}

var equivCodecs = []equivCodec{
	{"json", "application/json", func(b *bytes.Buffer, es []stream.Event) {
		type jsonEvent struct {
			Time  int64   `json:"time"`
			Key   uint64  `json:"key"`
			Value float64 `json:"value"`
		}
		evs := make([]jsonEvent, len(es))
		for i, e := range es {
			evs[i] = jsonEvent{Time: e.Time, Key: e.Key, Value: e.Value}
		}
		if err := json.NewEncoder(b).Encode(evs); err != nil {
			panic(err)
		}
	}},
	{"csv", "text/csv", func(b *bytes.Buffer, es []stream.Event) {
		if err := streamio.WriteCSV(b, es); err != nil {
			panic(err)
		}
	}},
	{"ndjson", "application/x-ndjson", func(b *bytes.Buffer, es []stream.Event) {
		if err := streamio.WriteJSONL(b, es); err != nil {
			panic(err)
		}
	}},
	// The same events in line shapes a hand-written client produces:
	// reordered keys, whitespace and an exponent-form value stay on the
	// decode kernel's fast path, a mixed-case key and an unknown key fall
	// back to encoding/json; one body mixes all of them.
	{"ndjson-noncanonical", "application/x-ndjson", func(b *bytes.Buffer, es []stream.Event) {
		shapes := []string{
			`{"value":%[3]v,"key":%[2]d,"time":%[1]d}`,
			` { "time" : %[1]d , "key" : %[2]d , "value" : %[3]v } `,
			"{\"time\":%[1]d,\t\"key\":%[2]d,\"value\":%[3]v}\r",
			`{"time":%[1]d,"key":%[2]d,"value":%[3]e}`,
			`{"Time":%[1]d,"key":%[2]d,"value":%[3]v}`,
			`{"time":%[1]d,"key":%[2]d,"value":%[3]v,"unit":"C"}`,
		}
		for i, e := range es {
			fmt.Fprintf(b, shapes[i%len(shapes)]+"\n", e.Time, e.Key, e.Value)
		}
	}},
	{"binary", ContentTypeFrame, func(b *bytes.Buffer, es []stream.Event) {
		if err := streamio.WriteBinary(b, es); err != nil {
			panic(err)
		}
	}},
}

// TestCrossCodecEquivalence is the wire-path property test: the same
// event batch POSTed through every ingest codec must leave the server
// in exactly the same state — byte-identical NDJSON and binary result
// streams, and an identical /stats document. Codec choice is a client
// convenience; it must never leak into the results.
func TestCrossCodecEquivalence(t *testing.T) {
	// Values are multiples of 0.25 so every codec round-trips them
	// exactly (CSV and JSON print them with no precision loss).
	var events []stream.Event
	for tick := int64(0); tick < 200; tick++ {
		for k := uint64(0); k < 5; k++ {
			events = append(events, stream.Event{
				Time: tick, Key: k, Value: float64((tick*5+int64(k))%37) * 0.25,
			})
		}
	}
	queries := []string{
		"SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 16))",
		"SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(HoppingWindow(tick, 24, 8))",
	}
	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			type outcome struct {
				status      IngestStatus
				ndjson, bin map[string][]byte
				stats       []byte
			}
			run := func(c equivCodec) outcome {
				s := New(Config{Shards: shards, ResultBuffer: 1 << 12})
				defer s.Close()
				h := s.Handler()
				for i, q := range queries {
					rw := httptest.NewRecorder()
					req := httptest.NewRequest("POST", fmt.Sprintf("/queries?id=q%d", i+1), bytes.NewReader([]byte(q)))
					h.ServeHTTP(rw, req)
					if rw.Code != http.StatusCreated {
						t.Fatalf("%s: register q%d: %d %s", c.name, i+1, rw.Code, rw.Body)
					}
				}
				var body bytes.Buffer
				c.encode(&body, events)
				req := httptest.NewRequest("POST", "/ingest", &body)
				req.Header.Set("Content-Type", c.contentType)
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				if rw.Code != http.StatusOK {
					t.Fatalf("%s: ingest: %d %s", c.name, rw.Code, rw.Body)
				}
				var st IngestStatus
				if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
					t.Fatalf("%s: ingest status: %v", c.name, err)
				}
				statsRW := httptest.NewRecorder()
				h.ServeHTTP(statsRW, httptest.NewRequest("GET", "/stats", nil))
				s.Close() // close rings so the streams drain and end
				out := outcome{status: st, ndjson: map[string][]byte{}, bin: map[string][]byte{}, stats: statsRW.Body.Bytes()}
				for i := range queries {
					id := fmt.Sprintf("q%d", i+1)
					out.ndjson[id] = drainStream(t, h, id, "")
					out.bin[id] = drainStream(t, h, id, ContentTypeFrame)
				}
				return out
			}
			base := run(equivCodecs[0])
			for _, c := range equivCodecs[1:] {
				got := run(c)
				if got.status != base.status {
					t.Errorf("%s ingest status = %+v, json = %+v", c.name, got.status, base.status)
				}
				if !bytes.Equal(got.stats, base.stats) {
					t.Errorf("%s /stats = %s\njson /stats = %s", c.name, got.stats, base.stats)
				}
				for i := range queries {
					id := fmt.Sprintf("q%d", i+1)
					if !bytes.Equal(got.ndjson[id], base.ndjson[id]) {
						t.Errorf("%s %s NDJSON stream differs from json ingest (%d vs %d bytes)",
							c.name, id, len(got.ndjson[id]), len(base.ndjson[id]))
					}
					if !bytes.Equal(got.bin[id], base.bin[id]) {
						t.Errorf("%s %s binary stream differs from json ingest (%d vs %d bytes)",
							c.name, id, len(got.bin[id]), len(base.bin[id]))
					}
				}
				if len(base.ndjson["q1"]) == 0 || len(base.bin["q1"]) == 0 {
					t.Fatal("baseline produced no results; the property is vacuous")
				}
			}
			// The binary stream must decode to exactly the NDJSON rows.
			assertFramesMatchNDJSON(t, base.bin["q1"], base.ndjson["q1"])
		})
	}
}

// drainStream reads one query's whole (closed) result stream in the
// encoding selected by accept ("" = NDJSON).
func drainStream(t *testing.T, h http.Handler, id, accept string) []byte {
	t.Helper()
	req := httptest.NewRequest("GET", "/queries/"+id+"/stream?after=-1", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("stream %s: %d %s", id, rw.Code, rw.Body)
	}
	return rw.Body.Bytes()
}

// assertFramesMatchNDJSON cross-decodes the two stream encodings: every
// binary frame row must equal the corresponding NDJSON row, sequence
// numbers reconstructed from the frame header.
func assertFramesMatchNDJSON(t *testing.T, frames, ndjson []byte) {
	t.Helper()
	type rowJSON struct {
		Seq   int64   `json:"seq"`
		Range int64   `json:"range"`
		Slide int64   `json:"slide"`
		Start int64   `json:"start"`
		End   int64   `json:"end"`
		Key   uint64  `json:"key"`
		Value float64 `json:"value"`
	}
	var want []rowJSON
	for line := range bytes.Lines(ndjson) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var r rowJSON
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("NDJSON row: %v", err)
		}
		want = append(want, r)
	}
	i := 0
	for len(frames) > 0 {
		f, rest, err := wire.Decode(frames)
		if err != nil {
			t.Fatalf("binary stream frame: %v", err)
		}
		frames = rest
		if f.Kind != wire.KindResults {
			t.Fatalf("binary stream carried kind %d", f.Kind)
		}
		for r := 0; r < f.Rows(); r++ {
			if i >= len(want) {
				t.Fatalf("binary stream has more rows than NDJSON (%d)", len(want))
			}
			seq, rng, slide, start, end, key, value := f.Result(r)
			got := rowJSON{Seq: seq, Range: rng, Slide: slide, Start: start, End: end, Key: key, Value: value}
			if got != want[i] {
				t.Fatalf("row %d: binary %+v != ndjson %+v", i, got, want[i])
			}
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("binary stream decoded %d rows, NDJSON has %d", i, len(want))
	}
}
