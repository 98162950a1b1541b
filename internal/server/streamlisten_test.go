package server

import (
	"encoding/json"
	"math"
	"net"
	"testing"
	"time"

	"factorwindows/internal/stream"
	"factorwindows/internal/wire"
)

// streamClient wraps one persistent-stream connection for tests.
type streamClient struct {
	t  *testing.T
	c  net.Conn
	fr *wire.Reader
}

func dialStream(t *testing.T, addr string) *streamClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fr := wire.NewReader(c)
	t.Cleanup(fr.Close)
	return &streamClient{t: t, c: c, fr: fr}
}

func (cl *streamClient) send(op subOp) {
	cl.t.Helper()
	line, err := json.Marshal(op)
	if err != nil {
		cl.t.Fatal(err)
	}
	if _, err := cl.c.Write(append(line, '\n')); err != nil {
		cl.t.Fatal(err)
	}
}

// next reads one frame with a test deadline.
func (cl *streamClient) next() wire.Frame {
	cl.t.Helper()
	cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := cl.fr.Next()
	if err != nil {
		cl.t.Fatalf("reading frame: %v", err)
	}
	return f
}

func (cl *streamClient) expectAck(want subAck) {
	cl.t.Helper()
	f := cl.next()
	if f.Kind != wire.KindControl {
		cl.t.Fatalf("expected control frame, got kind %d", f.Kind)
	}
	var got subAck
	if err := json.Unmarshal(f.Control(), &got); err != nil {
		cl.t.Fatal(err)
	}
	if got.Stream != want.Stream || got.OK != want.OK || got.EOF != want.EOF ||
		(want.Error == "") != (got.Error == "") {
		cl.t.Fatalf("ack = %+v, want %+v", got, want)
	}
}

// frameRow is one decoded result row for comparisons.
type frameRow struct {
	seq, rng, start int64
	key             uint64
	value           float64
}

// collectRows reads result frames for streamID until n rows arrived,
// failing on unexpected frames.
func (cl *streamClient) collectRows(streamID uint32, n int) []frameRow {
	cl.t.Helper()
	var out []frameRow
	for len(out) < n {
		f := cl.next()
		if f.Kind != wire.KindResults {
			cl.t.Fatalf("expected result frame, got kind %d (control=%q)", f.Kind, string(f.Control()))
		}
		if f.StreamID != streamID {
			cl.t.Fatalf("frame for stream %d, want %d", f.StreamID, streamID)
		}
		for i := 0; i < f.Rows(); i++ {
			seq, rng, _, start, _, key, value := f.Result(i)
			out = append(out, frameRow{seq: seq, rng: rng, start: start, key: key, value: value})
		}
	}
	return out
}

// TestStreamListener drives the persistent listener end to end: two
// subscriptions multiplex over one connection, frames carry consecutive
// sequence numbers per query, unsubscribe stops delivery, query
// unregistration EOFs the subscription, and a reconnect with the
// last-seen sequence resumes without loss or duplication.
func TestStreamListener(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	if _, err := s.Register("a", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 10))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("b", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 20))"); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamServer(s)
	defer ss.Close()
	go ss.Serve(ln)

	cl := dialStream(t, ln.Addr().String())
	cl.send(subOp{Op: "subscribe", Stream: 1, ID: "a", After: -1})
	cl.expectAck(subAck{Stream: 1, OK: true})
	cl.send(subOp{Op: "subscribe", Stream: 2, ID: "b", After: -1})
	cl.expectAck(subAck{Stream: 2, OK: true})
	cl.send(subOp{Op: "subscribe", Stream: 2, ID: "a", After: -1})
	cl.expectAck(subAck{Stream: 2, Error: "taken"})
	cl.send(subOp{Op: "subscribe", Stream: 3, ID: "nope", After: -1})
	cl.expectAck(subAck{Stream: 3, Error: "not found"})

	// Two keys over [0,40): window a (range 10) completes 4 instances per
	// key, window b (range 20) completes 2 per key.
	var events []stream.Event
	for tick := int64(0); tick <= 40; tick++ {
		for k := uint64(0); k < 2; k++ {
			events = append(events, stream.Event{Time: tick, Key: k, Value: 1})
		}
	}
	if _, err := s.Ingest(events); err != nil {
		t.Fatal(err)
	}

	// Rows interleave across the two streams in any order; collect each
	// stream's expected count separately by peeking at stream ids.
	want1, want2 := 8, 4
	got1, got2 := []frameRow{}, []frameRow{}
	for len(got1) < want1 || len(got2) < want2 {
		f := cl.next()
		if f.Kind != wire.KindResults {
			t.Fatalf("unexpected frame kind %d", f.Kind)
		}
		for i := 0; i < f.Rows(); i++ {
			seq, rng, _, start, _, key, value := f.Result(i)
			r := frameRow{seq: seq, rng: rng, start: start, key: key, value: value}
			switch f.StreamID {
			case 1:
				got1 = append(got1, r)
			case 2:
				got2 = append(got2, r)
			default:
				t.Fatalf("frame for unknown stream %d", f.StreamID)
			}
		}
	}
	for i, r := range got1 {
		if r.seq != int64(i) {
			t.Fatalf("stream 1 row %d has seq %d; want consecutive", i, r.seq)
		}
		if r.rng != 10 || r.value != 10 {
			t.Fatalf("stream 1 row %d = %+v; want range 10, SUM 10", i, r)
		}
	}
	for i, r := range got2 {
		if r.seq != int64(i) || r.rng != 20 || r.value != 20 {
			t.Fatalf("stream 2 row %d = %+v; want consecutive seq, range 20, SUM 20", i, r)
		}
	}

	// Unsubscribe stream 2; more events must only feed stream 1.
	cl.send(subOp{Op: "unsubscribe", Stream: 2})
	cl.expectAck(subAck{Stream: 2, OK: true})
	var more []stream.Event
	for tick := int64(41); tick <= 60; tick++ {
		for k := uint64(0); k < 2; k++ {
			more = append(more, stream.Event{Time: tick, Key: k, Value: 1})
		}
	}
	if _, err := s.Ingest(more); err != nil {
		t.Fatal(err)
	}
	next1 := cl.collectRows(1, 4)
	if next1[0].seq != int64(want1) {
		t.Fatalf("stream 1 resumed at seq %d, want %d", next1[0].seq, want1)
	}

	// Unregistering the query EOFs its subscription.
	if err := s.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	cl.expectAck(subAck{Stream: 1, EOF: true})

	// A fresh connection resumes query b from an explicit cursor: rows
	// before it are skipped, rows after it arrive exactly once.
	cl2 := dialStream(t, ln.Addr().String())
	cl2.send(subOp{Op: "subscribe", Stream: 7, ID: "b", After: 1})
	cl2.expectAck(subAck{Stream: 7, OK: true})
	resumed := cl2.collectRows(7, want2-2)
	if resumed[0].seq != 2 {
		t.Fatalf("resume after=1 started at seq %d, want 2", resumed[0].seq)
	}
}

// TestStreamListenerBinaryIngest drives the listener's binary ingest
// path: event frames interleave with JSON control lines on the same
// connection, each frame is acked with an ingest ack echoing its
// stream id, and on a durable server the ack carries durable=true plus
// the aux durability flag.
func TestStreamListenerBinaryIngest(t *testing.T) {
	s := openDurable(t, durableConfig(t.TempDir()))
	defer s.Shutdown()
	if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 10))"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamServer(s)
	defer ss.Close()
	go ss.Serve(ln)

	cl := dialStream(t, ln.Addr().String())
	cl.send(subOp{Op: "subscribe", Stream: 1, ID: "q", After: -1})
	cl.expectAck(subAck{Stream: 1, OK: true})

	// durableConfig sets ReorderBound 4: run ticks past the window end
	// plus the bound so [0,10) actually fires.
	var events []stream.Event
	for tick := int64(0); tick <= 15; tick++ {
		events = append(events, stream.Event{Time: tick, Key: 3, Value: 1})
	}
	if _, err := cl.c.Write(wire.AppendEventFrame(nil, events)); err != nil {
		t.Fatal(err)
	}
	// Result rows race the ingest ack (delivery is asynchronous), so
	// accept both until the ack and at least one row arrived.
	var (
		rows   []frameRow
		acked  bool
		ackFr  wire.Frame
		ackVal ingestAck
	)
	for !acked || len(rows) == 0 {
		f := cl.next()
		switch f.Kind {
		case wire.KindControl:
			ackFr = f
			if err := json.Unmarshal(f.Control(), &ackVal); err != nil {
				t.Fatal(err)
			}
			acked = true
		case wire.KindResults:
			for i := 0; i < f.Rows(); i++ {
				seq, rng, _, start, _, key, value := f.Result(i)
				rows = append(rows, frameRow{seq: seq, rng: rng, start: start, key: key, value: value})
			}
		default:
			t.Fatalf("unexpected frame kind %d", f.Kind)
		}
	}
	if !ackVal.Ingest || ackVal.Stream != 0 || ackVal.Accepted != len(events) || ackVal.Error != "" {
		t.Fatalf("ingest ack = %+v", ackVal)
	}
	if !ackVal.Durable {
		t.Fatal("durable server acked binary ingest durable=false")
	}
	if ackFr.Seq&ctrlAuxDurable == 0 {
		t.Fatalf("ack aux = %#x, durability flag missing", ackFr.Seq)
	}
	if rows[0].value != 10 || rows[0].key != 3 {
		t.Fatalf("row = %+v, want SUM 10 for key 3", rows[0])
	}

	// A non-events binary frame is a protocol error: error ack, then the
	// connection is severed.
	if _, err := cl.c.Write(wire.AppendControlFrame(nil, 9, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	for {
		cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		g, err := cl.fr.Next()
		if err != nil {
			break // severed, as promised
		}
		if g.Kind == wire.KindControl {
			var e ingestAck
			json.Unmarshal(g.Control(), &e)
			if e.Error == "" {
				t.Fatalf("expected error ack, got %q", string(g.Control()))
			}
		}
	}
}

// TestStreamListenerNonDurableAck: without a WAL the ingest ack says
// durable=false and carries no aux flag, so clients can tell the
// difference.
func TestStreamListenerNonDurableAck(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 10))"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamServer(s)
	defer ss.Close()
	go ss.Serve(ln)

	cl := dialStream(t, ln.Addr().String())
	if _, err := cl.c.Write(wire.AppendEventFrame(nil, []stream.Event{{Time: 1, Key: 1, Value: 1}})); err != nil {
		t.Fatal(err)
	}
	f := cl.next()
	var ack ingestAck
	if err := json.Unmarshal(f.Control(), &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Ingest || ack.Durable || f.Seq != 0 {
		t.Fatalf("non-durable ack = %+v aux=%#x", ack, f.Seq)
	}
}

// TestStreamListenerGapOnStaleCursor: subscribing with a cursor the
// ring has already evicted past yields a typed gap control frame — the
// missed count and the first available sequence — instead of silently
// resuming from the ring head.
func TestStreamListenerGapOnStaleCursor(t *testing.T) {
	s := New(Config{Shards: 1, ResultBuffer: 4})
	defer s.Close()
	if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 1))"); err != nil {
		t.Fatal(err)
	}
	// 20 one-tick windows fire for one key; the 4-row ring keeps seqs
	// 16..19 and evicts 0..15.
	var events []stream.Event
	for tick := int64(0); tick <= 20; tick++ {
		events = append(events, stream.Event{Time: tick, Key: 1, Value: 1})
	}
	if _, err := s.Ingest(events); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamServer(s)
	defer ss.Close()
	go ss.Serve(ln)

	cl := dialStream(t, ln.Addr().String())
	cl.send(subOp{Op: "subscribe", Stream: 1, ID: "q", After: 3})
	f := cl.next()
	if f.Kind != wire.KindControl {
		t.Fatalf("expected gap control frame, got kind %d", f.Kind)
	}
	var ack subAck
	if err := json.Unmarshal(f.Control(), &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.OK || !ack.Gap || ack.First != 16 || ack.Missed != 12 {
		t.Fatalf("gap ack = %+v, want Gap first=16 missed=12", ack)
	}
	if f.Seq&ctrlAuxGap == 0 {
		t.Fatalf("gap ack aux = %#x, gap flag missing", f.Seq)
	}
	// Delivery resumes at the advertised first sequence, no duplicates.
	rows := cl.collectRows(1, 4)
	if rows[0].seq != 16 || rows[3].seq != 19 {
		t.Fatalf("rows after gap = %+v", rows)
	}

	// A fresh cursor inside the ring gets a plain ack, no gap.
	cl.send(subOp{Op: "subscribe", Stream: 2, ID: "q", After: 17})
	f = cl.next()
	var ack2 subAck
	if err := json.Unmarshal(f.Control(), &ack2); err != nil {
		t.Fatal(err)
	}
	if !ack2.OK || ack2.Gap || f.Seq != 0 {
		t.Fatalf("in-window subscribe ack = %+v aux=%#x", ack2, f.Seq)
	}
	rows = cl.collectRows(2, 2)
	if rows[0].seq != 18 {
		t.Fatalf("resume inside window started at %d, want 18", rows[0].seq)
	}

	// The largest cursor is past the end, not before the start: a plain
	// ack and no rows, where after+1 used to wrap into a gap and a replay
	// of the whole ring.
	cl.send(subOp{Op: "subscribe", Stream: 3, ID: "q", After: math.MaxInt64})
	f = cl.next()
	var ack3 subAck
	if err := json.Unmarshal(f.Control(), &ack3); err != nil {
		t.Fatal(err)
	}
	if !ack3.OK || ack3.Gap || f.Seq != 0 {
		t.Fatalf("past-the-end subscribe ack = %+v aux=%#x", ack3, f.Seq)
	}
	// A cursor below -1 is refused, as on HTTP.
	cl.send(subOp{Op: "subscribe", Stream: 5, ID: "q", After: -5})
	cl.expectAck(subAck{Stream: 5, Error: "bad after cursor"})
	cl.send(subOp{Op: "subscribe", Stream: 4, ID: "q", After: 18})
	cl.expectAck(subAck{Stream: 4, OK: true})
	if rows = cl.collectRows(4, 1); rows[0].seq != 19 {
		t.Fatalf("resume at 18 delivered seq %d, want 19", rows[0].seq)
	}
}

// TestStreamListenerClose pins shutdown: closing the StreamServer severs
// connections without disturbing the underlying Server.
func TestStreamListenerClose(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 10))"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamServer(s)
	serveDone := make(chan error, 1)
	go func() { serveDone <- ss.Serve(ln) }()

	cl := dialStream(t, ln.Addr().String())
	cl.send(subOp{Op: "subscribe", Stream: 1, ID: "q", After: -1})
	cl.expectAck(subAck{Stream: 1, OK: true})

	ss.Close()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := cl.fr.Next(); err != nil {
			break // connection severed
		}
	}
	// The HTTP-facing server still works.
	if _, err := s.Ingest([]stream.Event{{Time: 1, Key: 1, Value: 1}}); err != nil {
		t.Fatalf("server broken after StreamServer close: %v", err)
	}
}
