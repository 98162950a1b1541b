package server

import (
	"bufio"
	"bytes"
	"io"
	"sync/atomic"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/reorder"
	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
)

// TestZeroAllocWireSteadyState extends the engine's zero-alloc
// guarantee across the wire paths: once buffers are warm, decoding
// event frames into the engine, and draining fired runs into a ring,
// reading them back as runs and encoding them (as result frames and as
// NDJSON — the text twin) all run without heap allocations — the full
// ingest→engine→egress loop allocates only at the HTTP layer.
func TestZeroAllocWireSteadyState(t *testing.T) {
	t.Run("ingest", func(t *testing.T) {
		s := New(Config{Shards: 2, Policy: reorder.Adjust})
		defer s.Close()
		if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 20))"); err != nil {
			t.Fatal(err)
		}
		// Frames of 512 rows over 4 keys. Re-ingesting the same body
		// under the adjust policy clamps the repeated times to the
		// release horizon, so every measured round still folds events
		// and fires windows instead of short-circuiting as late drops.
		var payload []byte
		ev := make([]stream.Event, 512)
		for frame := 0; frame < 8; frame++ {
			for i := range ev {
				tick := int64(frame*512+i) / 4
				ev[i] = stream.Event{Time: tick, Key: uint64(i % 4), Value: float64(i%97) * 0.25}
			}
			payload = wire.AppendEventFrame(payload, ev)
		}
		br := bytes.NewReader(payload)
		fr := wire.NewReader(br)
		defer fr.Close()
		batch := make([]stream.Event, 0, 512)
		ingestBody := func() {
			br.Reset(payload)
			fr.Reset(br)
			for {
				f, err := fr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				batch = f.AppendEvents(batch[:0])
				if _, err := s.Ingest(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 10; i++ {
			ingestBody() // warm key table, spans, reorder and scatter buffers
		}
		if allocs := testing.AllocsPerRun(50, ingestBody); allocs != 0 {
			t.Fatalf("binary ingest steady state: %v allocs per body, want 0", allocs)
		}
	})

	// The egress half, from the ordered drain to the encoded bytes: a
	// shard's buffered runs drain through the routing sink into the
	// ring (RunBuffer → multiquery.RunSink → ring.appendRun), the
	// delivery ends (routeSink.Delivered), a stream reader copies them
	// out as runs and encodes them, in both formats.
	for _, format := range []string{"frame", "ndjson"} {
		t.Run("stream/"+format, func(t *testing.T) {
			w := window.Tumbling(20)
			mp, err := multiquery.Optimize([]multiquery.Query{{ID: "q", Windows: []window.Window{w}}}, agg.Sum, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rg := newRing(streamChunk)
			sink := newRouteSink(mp, new(atomic.Bool), map[string]*ring{"q": rg})
			// One drain's worth: 16 instances of 64 keys.
			var fired, shard stream.RunBuffer
			keys, vals := make([]uint64, 64), make([]float64, 64)
			for i := 0; i < streamChunk/64; i++ {
				for k := range keys {
					keys[k], vals[k] = uint64(k), float64((i*64+k)%997)+0.5
				}
				fired.Append(stream.Run{W: w, Start: int64(i) * 20, End: int64(i+1) * 20, Keys: keys, Vals: vals})
			}
			chunk := &runChunk{}
			buf := make([]byte, 0, 1<<17)
			after := int64(-1)
			poll := func() {
				for i := 0; i < fired.Runs(); i++ {
					shard.Append(fired.Run(i))
				}
				shard.Drain(sink)
				sink.Delivered()
				if rg.readRuns(after, streamChunk, chunk); chunk.rows() != streamChunk || len(chunk.runs) != streamChunk/64 {
					t.Fatalf("drained %d rows in %d runs, want %d in %d", chunk.rows(), len(chunk.runs), streamChunk, streamChunk/64)
				}
				after += streamChunk
				if format == "frame" {
					buf = chunk.appendFrame(buf[:0], 0)
				} else {
					buf = chunk.appendJSON(buf[:0], '\n')
				}
			}
			poll() // warm
			if allocs := testing.AllocsPerRun(50, poll); allocs != 0 {
				t.Fatalf("%s stream poll steady state: %v allocs per poll, want 0", format, allocs)
			}
		})
	}
}

// TestZeroAllocTextIngestSteadyState is the text-codec mirror of the
// binary ingest guard above: once buffers are warm, decoding one
// ingestChunk NDJSON or CSV body through the loops the handlers run
// (decodeNDJSON; streamio.AppendCSV into the staging batch) and pushing
// it into the engine allocates nothing — text ingest, like binary,
// allocates only at the HTTP layer. The scanners read into the test's
// own line buffer: the race detector makes sync.Pool drop entries at
// random, which would show up here as allocations.
func TestZeroAllocTextIngestSteadyState(t *testing.T) {
	// Same shape as the binary guard (4 keys, re-ingest clamped by the
	// adjust policy); every third value is fractional so both the integer
	// fast path and strconv.ParseFloat are on the measured path.
	events := make([]stream.Event, ingestChunk)
	for i := range events {
		events[i] = stream.Event{Time: int64(i) / 4, Key: uint64(i % 4), Value: float64(i%97) * 0.25}
	}
	newServer := func(t *testing.T) *Server {
		s := New(Config{Shards: 2, Policy: reorder.Adjust})
		t.Cleanup(s.Close)
		if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 20))"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	measure := func(t *testing.T, ingestBody func()) {
		for i := 0; i < 10; i++ {
			ingestBody() // warm key table, spans, reorder and scatter buffers
		}
		if allocs := testing.AllocsPerRun(50, ingestBody); allocs != 0 {
			t.Fatalf("text ingest steady state: %v allocs per body, want 0", allocs)
		}
	}

	t.Run("ndjson", func(t *testing.T) {
		s := newServer(t)
		var body bytes.Buffer
		if err := streamio.WriteJSONL(&body, events); err != nil {
			t.Fatal(err)
		}
		br := bytes.NewReader(nil)
		lineBuf := make([]byte, 64<<10)
		batch := make([]stream.Event, 0, ingestChunk)
		measure(t, func() {
			br.Reset(body.Bytes())
			sc := bufio.NewScanner(br)
			sc.Buffer(lineBuf, len(lineBuf))
			var total ingestTotal
			if err := s.decodeNDJSON(sc, batch, &total); err != nil {
				t.Fatal(err)
			}
			if total.Accepted != ingestChunk {
				t.Fatalf("accepted %d events, want %d", total.Accepted, ingestChunk)
			}
		})
	})

	t.Run("csv", func(t *testing.T) {
		s := newServer(t)
		var body bytes.Buffer
		if err := streamio.WriteCSV(&body, events); err != nil {
			t.Fatal(err)
		}
		br := bytes.NewReader(nil)
		lineBuf := make([]byte, 64<<10)
		batch := make([]stream.Event, 0, ingestChunk)
		measure(t, func() {
			br.Reset(body.Bytes())
			sc := bufio.NewScanner(br)
			sc.Buffer(lineBuf, len(lineBuf))
			var err error
			if batch, err = streamio.AppendCSV(batch[:0], sc); err != nil {
				t.Fatal(err)
			}
			var total ingestTotal
			if err := total.apply(s, batch); err != nil {
				t.Fatal(err)
			}
			if total.Accepted != ingestChunk {
				t.Fatalf("accepted %d events, want %d", total.Accepted, ingestChunk)
			}
		})
	})
}
