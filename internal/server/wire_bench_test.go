package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"factorwindows/internal/reorder"
	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
)

// wireBenchEvents builds the shared ingest workload: in-order ticks
// over a small key set, enough events that codec cost dominates the
// fixed per-request overhead.
func wireBenchEvents(n int) []stream.Event {
	events := make([]stream.Event, n)
	for i := range events {
		events[i] = stream.Event{
			Time: int64(i) / 4, Key: uint64(i % 8), Value: float64(i%997) * 0.25,
		}
	}
	return events
}

// BenchmarkIngestWire compares the ingest codecs head-to-head through
// handleIngest: one pre-encoded 64k-event body per op, identical events
// in every encoding, the adjust policy clamping the repeated times so
// each op does full engine work. The binary frames decode by columnar
// scatter instead of per-event text parsing — that gap is the wire
// format's reason to exist, and BENCH_wire.json guards it.
func BenchmarkIngestWire(b *testing.B) {
	const nevents = 1 << 16
	events := wireBenchEvents(nevents)
	codecs := []struct {
		name        string
		contentType string
		encode      func(io.Writer, []stream.Event) error
	}{
		{"binary", ContentTypeFrame, streamio.WriteBinary},
		{"ndjson", "application/x-ndjson", streamio.WriteJSONL},
		{"csv", "text/csv", streamio.WriteCSV},
	}
	for _, c := range codecs {
		b.Run(c.name, func(b *testing.B) {
			var body bytes.Buffer
			if err := c.encode(&body, events); err != nil {
				b.Fatal(err)
			}
			payload := body.Bytes()
			s := New(Config{Shards: 2, Policy: reorder.Adjust})
			defer s.Close()
			if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 20))"); err != nil {
				b.Fatal(err)
			}
			br := bytes.NewReader(payload)
			req := httptest.NewRequest("POST", "/ingest", br)
			req.Header.Set("Content-Type", c.contentType)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Reset(payload)
				rw := &discardResponseWriter{h: make(http.Header)}
				s.handleIngest(rw, req)
			}
			b.ReportMetric(float64(nevents)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

// BenchmarkWireIngestSteady is the binary ingest kernel without the
// HTTP layer: frame decode, columnar scatter into the warm staging
// batch, and the engine push. Steady state must be allocation-free —
// the zero-alloc test pins it, this records the ns/op.
func BenchmarkWireIngestSteady(b *testing.B) {
	const nevents = 1 << 16
	var payload []byte
	events := wireBenchEvents(nevents)
	for off := 0; off < nevents; off += 8192 {
		payload = wire.AppendEventFrame(payload, events[off:off+8192])
	}
	s := New(Config{Shards: 2, Policy: reorder.Adjust})
	defer s.Close()
	if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 20))"); err != nil {
		b.Fatal(err)
	}
	br := bytes.NewReader(payload)
	fr := wire.NewReader(br)
	defer fr.Close()
	batch := make([]stream.Event, 0, 8192)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(payload)
		fr.Reset(br)
		for {
			f, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			batch = f.AppendEvents(batch[:0])
			if _, err := s.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(nevents)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkStreamFrame is BenchmarkStreamNDJSON's binary twin: drain a
// full closed ring through handleStream with the frame Accept header,
// exactly as a binary subscriber would.
func BenchmarkStreamFrame(b *testing.B) {
	const rows = 8192
	s := New(Config{ResultBuffer: rows})
	rg := newRing(rows)
	w := window.Tumbling(20)
	for i := 0; i < rows; i++ {
		rg.append(stream.Result{
			W: w, Start: int64(i) * 20, End: int64(i+1) * 20,
			Key: uint64(i % 512), Value: float64(i%997) + 0.5,
		})
	}
	rg.closeRing()
	s.queries["q"] = &registration{id: "q", ring: rg}
	req := httptest.NewRequest("GET", "/queries/q/stream", nil)
	req.Header.Set("Accept", ContentTypeFrame)
	req.SetPathValue("id", "q")
	b.ReportAllocs()
	b.ResetTimer()
	var written int64
	for i := 0; i < b.N; i++ {
		rw := &discardResponseWriter{h: make(http.Header)}
		s.handleStream(rw, req)
		written = rw.n
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	b.ReportMetric(float64(written)/rows, "B/row")
}

// BenchmarkStreamFramePoll is the per-poll egress kernel: drain one
// chunk of ring runs into the warm staging chunk and encode it as a
// single result frame. This is the loop body of both the HTTP stream and the
// persistent listener; steady state is allocation-free.
func BenchmarkStreamFramePoll(b *testing.B) {
	rg := newRing(streamChunk)
	w := window.Tumbling(20)
	for i := 0; i < streamChunk; i++ {
		rg.append(stream.Result{
			W: w, Start: int64(i) * 20, End: int64(i+1) * 20,
			Key: uint64(i % 512), Value: float64(i%997) + 0.5,
		})
	}
	chunk := &runChunk{}
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.readRuns(-1, streamChunk, chunk)
		buf = chunk.appendFrame(buf[:0], 0)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportMetric(float64(streamChunk)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}
