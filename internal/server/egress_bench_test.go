package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// discardResponseWriter absorbs the streamed body so the benchmark
// measures the encode path, not response buffering.
type discardResponseWriter struct {
	h http.Header
	n int64
}

func (w *discardResponseWriter) Header() http.Header { return w.h }

func (w *discardResponseWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (w *discardResponseWriter) WriteHeader(int) {}

// BenchmarkStreamNDJSON measures the result stream's wire path: drain a
// full ring through handleStream as NDJSON, exactly as a connected
// client would. The ring is closed, so each iteration reads every row
// and returns instead of parking.
func BenchmarkStreamNDJSON(b *testing.B) {
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

// BenchmarkAppendJSONChunk measures the row encoder alone on a full
// stream chunk: 1,024 rows in two runs of 512, the way a window
// instance over many keys fires.
func BenchmarkAppendJSONChunk(b *testing.B) {
	c := runChunk{firstSeq: 1 << 20}
	for r := range 2 {
		c.runs = append(c.runs, chunkRun{Range: 8, Slide: 8, Start: int64(r) * 8, End: int64(r+1) * 8, N: streamChunk / 2})
	}
	for i := range streamChunk {
		c.keys = append(c.keys, uint64(i*2654435761%4096))
		c.vals = append(c.vals, float64(i%997))
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		buf = c.appendJSON(buf[:0], '\n')
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*streamChunk), "ns/row")
}
