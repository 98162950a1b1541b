// Package shardworker hosts one side of the distributed shard protocol:
// a process that owns some subset of the key space and runs the full
// engine stack for it, speaking the binary frame protocol to a router.
//
// One accepted connection is one shard session. The router opens a
// session with a hello control frame carrying the plan inputs (query
// set, aggregate, cost-model η, factor toggle) and optionally carried
// state — one shard's bytes for engine.Resume: an engine snapshot when
// the shard continues the same plan (checkpoint restore, failover,
// rebalance), a canonical export when a re-plan handed it over. The
// worker rebuilds the joint plan deterministically from those inputs (the
// same multiquery.Optimize call the server makes, so the plan — and
// therefore every emitted row — is a pure function of the inputs), then
// streams:
//
//	router → worker: event frames (this shard's key subsequence, in
//	                 arrival order), advance/barrier/export/snapshot/
//	                 release/close control frames
//	worker → router: result frames + ack (barrier), state envelopes
//	                 (export, snapshot), bye (release, close)
//
// The worker holds results between barriers in a stream.RunBuffer and
// flushes them only when the router asks: the router merges per-shard
// results in shard order to reproduce the single-process engine's
// ordered drain byte-for-byte.
//
// Sessions are independent: a worker hosts any number of shards, each
// on its own connection, possibly from different plan epochs during a
// re-plan handover. A session that violates the protocol or whose
// engine panics reports a CtrlError envelope and dies; the router
// treats that as worker death for that shard.
package shardworker

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/cost"
	"factorwindows/internal/engine"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
)

// Worker accepts shard sessions and runs each one's engine until the
// router releases, closes, or abandons it.
type Worker struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New builds an idle worker; pair it with Serve.
func New() *Worker {
	return &Worker{conns: make(map[net.Conn]struct{})}
}

// Serve accepts shard sessions on ln until Close. It returns nil after
// Close, or the listener's error otherwise.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return errors.New("shardworker: Serve after Close")
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		go w.session(conn)
	}
}

// Close stops accepting, severs every live session mid-frame (the
// router sees worker death, not a clean bye), and waits the sessions
// out. Closing twice is safe.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	ln := w.ln
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	w.wg.Wait()
}

// done unregisters a finished session's connection.
func (w *Worker) done(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
	conn.Close()
	w.wg.Done()
}

// session speaks one shard's protocol on conn until the router ends it.
type session struct {
	conn net.Conn
	fr   *wire.Reader
	asm  wire.CtrlAssembler

	eng  *engine.Runner
	sink *stream.RunBuffer // the engine's sink: runs fired since the last flush

	scratch []stream.Event
	out     []byte
}

func (w *Worker) session(conn net.Conn) {
	defer w.done(conn)
	s := &session{conn: conn, fr: wire.NewReader(conn)}
	defer s.fr.Close()
	defer func() {
		// An engine panic (contract violation downstream of a corrupt
		// import, say) poisons only this session: report it so the
		// router can distinguish poison from a dead TCP peer, then let
		// the deferred close sever the conn.
		if p := recover(); p != nil {
			s.sendCtrl(&wire.Ctrl{Op: wire.CtrlError, Error: fmt.Sprintf("shard panic: %v", p)})
		}
	}()
	for {
		f, err := s.fr.Next()
		if err != nil {
			// io.EOF / ErrShort: the router hung up (re-plan teardown,
			// failover away from us, router death). The engine state is
			// abandoned; nothing to flush, no one to tell.
			return
		}
		switch f.Kind {
		case wire.KindEvents:
			if s.eng == nil {
				s.fail("event frame before hello")
				return
			}
			s.scratch = f.AppendEvents(s.scratch[:0])
			s.eng.Process(s.scratch)
		case wire.KindControl:
			c, done, err := s.asm.Add(f)
			if err != nil {
				s.fail(err.Error())
				return
			}
			if !done {
				continue
			}
			if quit := s.handle(&c); quit {
				return
			}
		default:
			s.fail(fmt.Sprintf("unexpected frame kind %d", f.Kind))
			return
		}
	}
}

// handle executes one complete control envelope; quit ends the session.
func (s *session) handle(c *wire.Ctrl) (quit bool) {
	switch c.Op {
	case wire.CtrlAdvance, wire.CtrlBarrier, wire.CtrlExport, wire.CtrlSnapshot:
		// These act on the engine only a hello builds.
		if s.eng == nil {
			s.fail(c.Op + " before hello")
			return true
		}
	}
	switch c.Op {
	case wire.CtrlHello:
		if s.eng != nil {
			s.fail("duplicate hello")
			return true
		}
		migrated, err := s.hello(c)
		if err != nil {
			s.fail(err.Error())
			return true
		}
		return !s.sendCtrl(&wire.Ctrl{Op: wire.CtrlAck, Migrated: migrated})
	case wire.CtrlAdvance:
		s.eng.Advance(c.Horizon)
		return false
	case wire.CtrlBarrier:
		if !s.flushResults() {
			return true
		}
		return !s.sendCtrl(&wire.Ctrl{
			Op:      wire.CtrlAck,
			Updates: s.eng.TotalUpdates(),
			Events:  s.eng.Events(),
		})
	case wire.CtrlExport:
		ex, err := s.eng.ExportCanonical(c.Horizon)
		if err != nil {
			s.fail(err.Error())
			return true
		}
		blob, err := engine.EncodeExport(ex)
		if err != nil {
			s.fail(err.Error())
			return true
		}
		return !s.sendCtrl(&wire.Ctrl{Op: wire.CtrlExport, State: blob})
	case wire.CtrlSnapshot:
		blob, err := s.eng.Snapshot()
		if err != nil {
			s.fail(err.Error())
			return true
		}
		return !s.sendCtrl(&wire.Ctrl{Op: wire.CtrlSnapshot, State: blob})
	case wire.CtrlRelease:
		// The state has moved elsewhere: drop the engine without
		// flushing (a flush would emit rows the shard's new host will
		// also emit).
		s.sendCtrl(&wire.Ctrl{Op: wire.CtrlBye})
		return true
	case wire.CtrlClose:
		if s.eng != nil {
			s.eng.Close()
			if !s.flushResults() {
				return true
			}
		}
		var updates int64
		if s.eng != nil {
			updates = s.eng.TotalUpdates()
		}
		s.sendCtrl(&wire.Ctrl{Op: wire.CtrlBye, Updates: updates})
		return true
	default:
		s.fail(fmt.Sprintf("unexpected control op %q", c.Op))
		return true
	}
}

// hello rebuilds the plan from the envelope's inputs and resumes or
// starts the shard engine; it returns the instances the state handed
// over.
func (s *session) hello(c *wire.Ctrl) (int, error) {
	if len(c.Queries) == 0 {
		return 0, errors.New("hello without queries")
	}
	qs := make([]multiquery.Query, 0, len(c.Queries))
	for _, q := range c.Queries {
		ws := make([]window.Window, 0, len(q.Windows))
		for _, w := range q.Windows {
			ws = append(ws, window.Window{Range: w.Range, Slide: w.Slide})
		}
		qs = append(qs, multiquery.Query{ID: q.ID, Windows: ws})
	}
	eta := c.Eta
	if eta < 1 {
		eta = 1
	}
	mp, err := multiquery.Optimize(qs, agg.Fn(c.Fn), core.Options{
		Factors: c.Factors,
		Model:   cost.Model{Eta: eta},
	})
	if err != nil {
		return 0, err
	}
	mp.Combined.Param = c.Param
	sink := &stream.RunBuffer{}
	eng, migrated, err := engine.Resume(mp.Combined, sink, engine.Encoded(c.State), c.Floor)
	if err != nil {
		return 0, err
	}
	s.eng, s.sink = eng, sink
	return migrated, nil
}

// flushResults ships everything the engine emitted since the last flush
// as result frames, preserving emission order: each buffered run fills
// its stretch of a frame's columns (a run may straddle two frames).
// Reports write success.
func (s *session) flushResults() bool {
	run, off := 0, 0 // next row to ship: row off of buffered run
	for left := s.sink.Rows(); left > 0; {
		n := min(left, wire.MaxFrameRows)
		enc := wire.BeginResultFrame(s.out[:0], 0, 0, n)
		for at := 0; at < n; {
			r := s.sink.Run(run)
			k := min(r.Len()-off, n-at)
			enc.SetRun(at, r.W.Range, r.W.Slide, r.Start, r.End, r.Keys[off:off+k], r.Vals[off:off+k])
			at += k
			if off += k; off == r.Len() {
				run, off = run+1, 0
			}
		}
		s.out = enc.Bytes()
		if _, err := s.conn.Write(s.out); err != nil {
			return false
		}
		left -= n
	}
	s.sink.Reset()
	return true
}

// sendCtrl writes one control envelope; reports write success.
func (s *session) sendCtrl(c *wire.Ctrl) bool {
	s.out = wire.AppendCtrl(s.out[:0], 0, c)
	_, err := s.conn.Write(s.out)
	return err == nil
}

// fail reports a protocol or engine error to the router, best-effort.
func (s *session) fail(msg string) {
	s.sendCtrl(&wire.Ctrl{Op: wire.CtrlError, Error: msg})
}
