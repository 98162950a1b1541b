// Persistent streaming listener: one raw TCP connection multiplexes any
// number of query subscriptions as binary result frames, replacing
// long-poll re-requests for high-fan-out subscribers.

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"factorwindows/internal/stream"
	"factorwindows/internal/wire"
)

// streamWriteTimeout bounds one frame write; a subscriber that stops
// reading loses its connection instead of parking a goroutine forever.
const streamWriteTimeout = 30 * time.Second

// Control-frame aux flags (wire.AppendControlFrameAux / Frame.Seq).
const (
	// ctrlAuxDurable marks an ingest ack whose WAL record was fsynced
	// before the ack — the binary counterpart of IngestStatus.Durable.
	ctrlAuxDurable int64 = 1 << 0
	// ctrlAuxGap marks a typed gap notice: rows before subAck.First were
	// evicted from the ring and will never be delivered. Sent instead of
	// silently resuming at the ring head, so a resuming client can tell
	// exactly-resumed from data-lost.
	ctrlAuxGap int64 = 1 << 1
	// ctrlAuxShed marks an ingest ack whose event frame was shed by
	// admission control (nothing was applied); the ack's Error carries
	// the Retry-After hint. The typed flag lets binary clients back off
	// without parsing the message text.
	ctrlAuxShed int64 = 1 << 2
)

// subOp is one client → server control line (NDJSON): subscribe a query
// under a client-chosen stream id, or unsubscribe that id. After is the
// per-query resume cursor (sequence numbers are durable across
// reconnects and crash recoveries: resubscribe with the last sequence
// seen and delivery continues exactly where it stopped; anything the
// ring evicted meanwhile is announced with a gap control frame).
type subOp struct {
	Op     string `json:"op"`
	Stream uint32 `json:"stream"`
	ID     string `json:"id"`
	After  int64  `json:"after"`
}

// subAck is the JSON payload of the control frame answering one subOp,
// announcing a subscription's end of stream, or (Gap set, with the
// ctrlAuxGap aux flag) reporting Missed evicted rows — delivery resumes
// at sequence First.
type subAck struct {
	Stream uint32 `json:"stream"`
	ID     string `json:"id,omitempty"`
	OK     bool   `json:"ok,omitempty"`
	EOF    bool   `json:"eof,omitempty"`
	Gap    bool   `json:"gap,omitempty"`
	Missed int64  `json:"missed,omitempty"`
	First  int64  `json:"first,omitempty"`
	Error  string `json:"error,omitempty"`
}

// ingestAck is the JSON payload answering one client event frame; the
// carrying control frame's aux word has ctrlAuxDurable set when the
// batch's WAL record was fsynced before the ack.
type ingestAck struct {
	Stream   uint32 `json:"stream"`
	Ingest   bool   `json:"ingest"`
	Accepted int    `json:"accepted"`
	Dropped  int    `json:"dropped"`
	Durable  bool   `json:"durable"`
	Error    string `json:"error,omitempty"`
}

// StreamServer serves the persistent streaming protocol over raw TCP:
//
//	client → server  one JSON object per line —
//	    {"op":"subscribe","stream":1,"id":"q1","after":-1}
//	    {"op":"unsubscribe","stream":1}
//	  or binary event frames (internal/wire), ingested like POST /ingest
//	server → client  binary frames (internal/wire) —
//	    control frames carrying subAck JSON (op acks, errors, EOF, gap
//	    notices) or ingestAck JSON (per event frame, with the durable
//	    aux flag), and result frames tagged with the subscription's
//	    stream id, one per drained ring run, row 0's sequence number in
//	    the header.
//
// The two client encodings share the connection unambiguously: a JSON
// line starts with '{' (0x7b, odd), while a frame starts with the low
// byte of its u32 length — header plus 8-byte column words, always ≡ 4
// (mod 8), never odd — so one peeked byte decides the decoder.
//
// Stream ids are chosen by the client and scope every server frame to
// one subscription (event frames echo theirs in the ingest ack), so
// frames of many queries interleave on one connection without
// ambiguity. The server closes a subscription with an EOF control frame
// when its query is unregistered or the server shuts down; the
// connection itself stays usable.
type StreamServer struct {
	s *Server

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*streamConn]struct{}
	closed    bool
}

// NewStreamServer wraps s with the persistent streaming protocol; serve
// it on any number of listeners with Serve.
func NewStreamServer(s *Server) *StreamServer {
	return &StreamServer{
		s:         s,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*streamConn]struct{}),
	}
}

// Serve accepts connections on l until the listener fails or the
// StreamServer closes. It blocks; run it in a goroutine.
func (ss *StreamServer) Serve(l net.Listener) error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	ss.listeners[l] = struct{}{}
	ss.mu.Unlock()
	defer func() {
		ss.mu.Lock()
		delete(ss.listeners, l)
		ss.mu.Unlock()
		l.Close()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			ss.mu.Lock()
			closed := ss.closed
			ss.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sc := &streamConn{ss: ss, c: c, done: make(chan struct{}), subs: make(map[uint32]chan struct{})}
		ss.mu.Lock()
		if ss.closed {
			ss.mu.Unlock()
			c.Close()
			return nil
		}
		ss.conns[sc] = struct{}{}
		ss.mu.Unlock()
		go sc.run()
	}
}

// Close stops accepting, severs every live connection, and leaves the
// underlying Server untouched.
func (ss *StreamServer) Close() {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	lns := make([]net.Listener, 0, len(ss.listeners))
	for l := range ss.listeners {
		lns = append(lns, l)
	}
	conns := make([]*streamConn, 0, len(ss.conns))
	for c := range ss.conns {
		conns = append(conns, c)
	}
	ss.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}
	for _, c := range conns {
		c.close()
	}
}

// streamConn is one client connection: a control-line reader plus one
// writer goroutine per live subscription, all frame writes serialized
// on wmu so frames never interleave mid-frame.
type streamConn struct {
	ss   *StreamServer
	c    net.Conn
	done chan struct{}

	wmu sync.Mutex // serializes frame writes

	mu     sync.Mutex // guards subs
	subs   map[uint32]chan struct{}
	closed bool
}

// run reads client input — JSON control lines and binary event frames,
// dispatched on one peeked byte — until the client disconnects, then
// tears the connection's subscriptions down.
func (sc *streamConn) run() {
	defer sc.close()
	defer func() {
		sc.ss.mu.Lock()
		delete(sc.ss.conns, sc)
		sc.ss.mu.Unlock()
	}()
	br := bufio.NewReaderSize(sc.c, 64<<10)
	fr := wire.NewReader(br)
	defer fr.Close()
	for {
		first, err := br.Peek(1)
		if err != nil {
			return
		}
		switch {
		case first[0] == '{':
			if !sc.controlLine(br) {
				return
			}
		case first[0] == '\n' || first[0] == '\r' || first[0] == ' ' || first[0] == '\t':
			br.ReadByte() // stray whitespace between control lines
		default:
			f, err := fr.Next()
			if err != nil {
				sc.ack(subAck{Error: fmt.Sprintf("bad frame: %v", err)})
				return
			}
			if f.Kind != wire.KindEvents {
				sc.ack(subAck{Stream: f.StreamID, Error: fmt.Sprintf("frame kind %d is not an event frame", f.Kind)})
				return
			}
			sc.ingestFrame(f)
		}
	}
}

// controlLine reads and applies one JSON control line; false severs the
// connection.
func (sc *streamConn) controlLine(br *bufio.Reader) bool {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			sc.ack(subAck{Error: "control line too long"})
		}
		return false
	}
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return true
	}
	var op subOp
	if err := json.Unmarshal(line, &op); err != nil {
		sc.ack(subAck{Error: fmt.Sprintf("bad control line: %v", err)})
		return false
	}
	switch op.Op {
	case "subscribe":
		sc.subscribe(op)
	case "unsubscribe":
		sc.unsubscribe(op.Stream)
	default:
		sc.ack(subAck{Stream: op.Stream, Error: fmt.Sprintf("unknown op %q", op.Op)})
	}
	return true
}

// frameAdmitCharge estimates one event frame's memory footprint for
// admission: the decoded events (three 8-byte words each) plus a small
// fixed overhead for the frame header and staging bookkeeping.
func frameAdmitCharge(rows int) int64 { return int64(rows)*24 + 64 }

// ingestFrame pushes one client event frame through the regular ingest
// path — chunked at ingestChunk like every HTTP codec, each chunk one
// WAL record on a durable server — and acks it with a control frame
// echoing the frame's stream id, ctrlAuxDurable set when every chunk
// was fsync-acked. Ingest failures ack with the error instead of
// severing the connection: the client's other subscriptions are fine.
func (sc *streamConn) ingestFrame(f wire.Frame) {
	if s := sc.ss.s; s.admit != nil {
		g, err := s.admit.Acquire(sourceOf(sc.c.RemoteAddr().String()), frameAdmitCharge(f.Rows()))
		if err != nil {
			sc.ackAux(f.StreamID, ctrlAuxShed, ingestAck{Stream: f.StreamID, Ingest: true, Error: err.Error()})
			return
		}
		defer g.Release()
	}
	batchp := frameBatchPool.Get().(*[]stream.Event)
	batch := f.AppendEvents((*batchp)[:0])
	var total ingestTotal
	_, ierr := total.flush(sc.ss.s, batch, true)
	*batchp = batch
	putFrameBatch(batchp)
	ack := ingestAck{Stream: f.StreamID, Ingest: true, Accepted: total.Accepted, Dropped: total.Dropped}
	var aux int64
	if ierr != nil {
		ack.Error = ierr.Error()
	} else if total.Durable {
		ack.Durable = true
		aux = ctrlAuxDurable
	}
	sc.ackAux(f.StreamID, aux, ack)
}

// subscribe resolves the query's ring and starts the subscription's
// writer; errors come back as control frames so one bad subscribe does
// not sever the other streams on the connection.
func (sc *streamConn) subscribe(op subOp) {
	if op.After < -1 {
		// As on HTTP: a cursor is the last sequence number seen, and one
		// below -1 would report rows that never existed as missed.
		sc.ack(subAck{Stream: op.Stream, ID: op.ID, Error: fmt.Sprintf("bad after cursor: %d is below -1", op.After)})
		return
	}
	rg, err := sc.ss.s.ringOf(op.ID)
	if err != nil {
		sc.ack(subAck{Stream: op.Stream, ID: op.ID, Error: err.Error()})
		return
	}
	stop := make(chan struct{})
	sc.mu.Lock()
	if limit := sc.ss.s.cfg.MaxStreamSubs; limit > 0 && len(sc.subs) >= limit {
		// Each subscription costs a goroutine plus a pooled staging
		// buffer; an unbounded count lets one connection exhaust the
		// process. The limit errs the op, not the connection.
		sc.mu.Unlock()
		sc.ack(subAck{Stream: op.Stream, ID: op.ID, Error: fmt.Sprintf("subscription limit reached (%d per connection)", limit)})
		return
	}
	if _, taken := sc.subs[op.Stream]; taken {
		sc.mu.Unlock()
		sc.ack(subAck{Stream: op.Stream, ID: op.ID, Error: fmt.Sprintf("stream %d already subscribed", op.Stream)})
		return
	}
	sc.subs[op.Stream] = stop
	sc.mu.Unlock()
	after := op.After
	if first, _ := rg.window(); after >= 0 && after < first-1 {
		// Stale resume cursor: the ring evicted rows past it. Say so with
		// a typed gap frame (and advance the cursor to the surviving
		// head) instead of silently resuming as if nothing was lost.
		sc.ackAux(op.Stream, ctrlAuxGap, subAck{
			Stream: op.Stream, ID: op.ID, OK: true,
			Gap: true, Missed: first - (after + 1), First: first,
		})
		after = first - 1
	} else {
		sc.ack(subAck{Stream: op.Stream, ID: op.ID, OK: true})
	}
	go sc.streamSub(op.Stream, rg, after, stop)
}

// unsubscribe stops one subscription; unknown ids ack with an error.
func (sc *streamConn) unsubscribe(streamID uint32) {
	sc.mu.Lock()
	stop, ok := sc.subs[streamID]
	if ok {
		delete(sc.subs, streamID)
	}
	sc.mu.Unlock()
	if !ok {
		sc.ack(subAck{Stream: streamID, Error: fmt.Sprintf("stream %d not subscribed", streamID)})
		return
	}
	close(stop)
	sc.ack(subAck{Stream: streamID, OK: true})
}

// streamSub is one subscription's writer: follow's loop, with each
// drained chunk framed under the subscription's stream id and evicted
// rows announced by a gap frame before the rows that survive. Steady
// state is allocation-free per poll: pooled run staging, pooled encode
// buffer, one frame write per drained chunk.
func (sc *streamConn) streamSub(streamID uint32, rg *ring, after int64, stop chan struct{}) {
	gap := func(missed, first int64) {
		// Eviction outran this subscriber mid-stream.
		sc.ackAux(streamID, ctrlAuxGap, subAck{Stream: streamID, Gap: true, Missed: missed, First: first})
	}
	send := func(dst []byte, c *runChunk) ([]byte, error) {
		dst = c.appendFrame(dst, streamID)
		err := sc.write(dst)
		if err != nil {
			sc.close()
		}
		return dst, err
	}
	if follow(rg, after, sc.done, stop, gap, send) {
		sc.ack(subAck{Stream: streamID, EOF: true})
		sc.dropSub(streamID)
	}
}

// dropSub removes a subscription that ended on its own (ring closed).
func (sc *streamConn) dropSub(streamID uint32) {
	sc.mu.Lock()
	delete(sc.subs, streamID)
	sc.mu.Unlock()
}

// ack sends one plain control frame; write failures sever the
// connection.
func (sc *streamConn) ack(a subAck) { sc.ackAux(a.Stream, 0, a) }

// ackAux sends one control frame with the given aux flags and JSON
// payload; write failures sever the connection.
func (sc *streamConn) ackAux(streamID uint32, aux int64, v any) {
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	buf := wire.AppendControlFrameAux(nil, streamID, aux, payload)
	if sc.write(buf) != nil {
		sc.close()
	}
}

// write sends one whole frame under the write lock with a deadline. A
// connection that cannot even arm its deadline is dead; failing here
// lets the caller evict the subscriber immediately instead of issuing
// an unbounded Write on a wedged socket.
func (sc *streamConn) write(buf []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if err := sc.c.SetWriteDeadline(time.Now().Add(streamWriteTimeout)); err != nil {
		return err
	}
	_, err := sc.c.Write(buf)
	return err
}

// close severs the connection and stops every subscription goroutine.
func (sc *streamConn) close() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	for id, stop := range sc.subs {
		close(stop)
		delete(sc.subs, id)
	}
	sc.mu.Unlock()
	close(sc.done)
	sc.c.Close()
}
