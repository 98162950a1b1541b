package server

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"factorwindows/internal/shardworker"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
)

// pipeListener is a net.Listener whose connections are net.Pipe ends:
// dial hands the far end of a fresh pipe to Accept.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, errors.New("pipe listener closed")
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeWorkers starts n shard workers served over net.Pipe and returns
// their addresses, the workers, and the dialer a Config's WorkerDial
// takes.
func pipeWorkers(t *testing.T, n int) ([]string, []*shardworker.Worker, func(string) (net.Conn, error)) {
	t.Helper()
	addrs := make([]string, n)
	ws := make([]*shardworker.Worker, n)
	lns := map[string]*pipeListener{}
	for i := range ws {
		addrs[i] = "pipe-worker-" + string(rune('a'+i))
		lns[addrs[i]] = newPipeListener()
		ws[i] = shardworker.New()
		go ws[i].Serve(lns[addrs[i]])
		t.Cleanup(ws[i].Close)
	}
	return addrs, ws, func(addr string) (net.Conn, error) {
		ln := lns[addr]
		if ln == nil {
			return nil, errors.New("no pipe worker " + addr)
		}
		return ln.dial()
	}
}

// TestRingWakesPerFullPollOrDelivery pins when a ring wakes its parked
// readers: not per appended run, but once a delivery that appended rows
// ends, or as soon as a full stream poll has accumulated — a single run
// larger than streamChunk wakes them inside the barrier that delivers
// it, before the delivery ends.
func TestRingWakesPerFullPollOrDelivery(t *testing.T) {
	woken := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	run := func(n int) stream.Run {
		return stream.Run{W: window.Tumbling(4), End: 4, Keys: make([]uint64, n), Vals: make([]float64, n)}
	}
	g := newRing(1 << 14)
	ch := g.waitCh()
	if owed := g.appendRun(run(10)); !owed || woken(ch) {
		t.Fatalf("first small run: owed %v, woken %v; want a wake owed, not given", owed, woken(ch))
	}
	if owed := g.appendRun(run(10)); owed || woken(ch) {
		t.Fatalf("second small run: owed %v, woken %v; want neither", owed, woken(ch))
	}
	g.delivered()
	if !woken(ch) {
		t.Fatal("the end of a delivery that appended rows must wake the reader")
	}
	ch = g.waitCh()
	g.delivered()
	if woken(ch) {
		t.Fatal("a delivery that appended nothing woke the reader")
	}
	g.appendRun(run(streamChunk + 1))
	if !woken(ch) {
		t.Fatal("a run larger than a stream poll must wake the reader before its delivery ends")
	}
}

// TestReadersWakeOnEveryDelivery: a /stream reader and a listener
// subscriber, each parked on its own query's ring, wake for the rows of
// every path that delivers results — an ingest barrier, a re-plan's
// carry, the runner's Close, and in the distributed tier a shard move
// and a failover (workers over net.Pipe). Each path delivers fewer rows
// than a stream poll, so only the end-of-delivery wake can wake the
// readers. The pending rows are pushed into the runner without a
// barrier, so the path under test is the one delivering them.
func TestReadersWakeOnEveryDelivery(t *testing.T) {
	const sql = "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 10))"
	const keys = 4
	ticks := func(from, to int64) []stream.Event {
		var evs []stream.Event
		for tick := from; tick <= to; tick++ {
			for k := range uint64(keys) {
				evs = append(evs, stream.Event{Time: tick, Key: k, Value: float64(tick)})
			}
		}
		return evs
	}
	// pend runs ticks 11..20 and the watermark 20 through the runner
	// without a barrier: instance [10,20) fires into the shards' buffers.
	pend := func(s *Server) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.pipe.runner.Process(ticks(11, 20))
		s.pipe.runner.Advance(20)
	}
	for _, tc := range []struct {
		name    string
		workers int
		deliver func(t *testing.T, s *Server, addrs []string, ws []*shardworker.Worker)
	}{
		{"ingest", 0, nil},
		{"replan", 0, nil},
		{"close", 0, nil},
		{"ingest/distributed", 2, nil},
		{"replan/distributed", 2, nil},
		{"close/distributed", 2, nil},
		{"move", 2, func(t *testing.T, s *Server, addrs []string, _ []*shardworker.Worker) {
			if err := s.MoveShard(0, addrs[1]); err != nil {
				t.Fatal(err)
			}
		}},
		{"failover", 2, func(t *testing.T, s *Server, _ []string, ws []*shardworker.Worker) {
			ws[0].Close() // shard 0's host; the barrier fails it over
			if _, err := s.Ingest(nil); err != nil {
				t.Fatal(err)
			}
			if topo := s.TopologyNow(); topo == nil || topo.Failovers == 0 {
				t.Fatalf("no failover: %+v", topo)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 2}
			var addrs []string
			var ws []*shardworker.Worker
			if tc.workers > 0 {
				addrs, ws, cfg.WorkerDial = pipeWorkers(t, tc.workers)
				cfg.Workers = addrs
			}
			s := New(cfg)
			defer s.Close()
			for _, id := range []string{"a", "b"} {
				if _, err := s.Register(id, sql); err != nil {
					t.Fatal(err)
				}
			}
			rings := []*ring{s.queries["a"].ring, s.queries["b"].ring}
			// Warm: instance [0,10) is delivered before the readers
			// attach (the /stream response starts with its first rows).
			if _, err := s.Ingest(ticks(0, 10)); err != nil {
				t.Fatal(err)
			}

			// Query a's reader: /stream over HTTP, counting NDJSON rows.
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()
			resp, err := http.Get(hs.URL + "/queries/a/stream?after=-1")
			if err != nil {
				t.Fatal(err)
			}
			rowsA := make(chan int, 64)
			defer func() {
				resp.Body.Close()
				for range rowsA {
				}
			}()
			go func() {
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					rowsA <- 1
				}
				close(rowsA)
			}()
			// Query b's reader: a listener subscription over net.Pipe.
			ln := newPipeListener()
			ss := NewStreamServer(s)
			defer ss.Close()
			go ss.Serve(ln)
			c, err := ln.dial()
			if err != nil {
				t.Fatal(err)
			}
			cl := &streamClient{t: t, c: c, fr: wire.NewReader(c)}
			cl.send(subOp{Op: "subscribe", Stream: 1, ID: "b", After: -1})
			cl.expectAck(subAck{Stream: 1, OK: true})
			rowsB := make(chan int, 64)
			defer func() {
				c.Close()
				for range rowsB {
				}
			}()
			go func() {
				defer cl.fr.Close()
				for {
					f, err := cl.fr.Next()
					if err != nil {
						close(rowsB)
						return
					}
					rowsB <- f.Rows()
				}
			}()
			await := func(what string, rows <-chan int, want int) {
				t.Helper()
				deadline := time.After(10 * time.Second)
				for got := 0; got < want; {
					select {
					case n, ok := <-rows:
						if !ok {
							t.Fatalf("%s: stream ended after %d of %d rows", what, got, want)
						}
						got += n
					case <-deadline:
						t.Fatalf("%s: %d of %d rows arrived; the reader was never woken", what, got, want)
					}
				}
			}

			await("warm a", rowsA, keys)
			await("warm b", rowsB, keys)
			// Both readers park: each has fetched its ring's wait channel
			// after taking the warm rows.
			parked := make([]<-chan struct{}, len(rings))
			for i, rg := range rings {
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					rg.mu.Lock()
					waited, ch := rg.waited, rg.wait
					rg.mu.Unlock()
					if waited {
						parked[i] = ch
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("reader of ring %d never parked", i)
					}
				}
			}

			switch {
			case tc.deliver != nil:
				pend(s)
				tc.deliver(t, s, addrs, ws)
			case tc.name == "ingest" || tc.name == "ingest/distributed":
				if _, err := s.Ingest(ticks(11, 20)); err != nil {
					t.Fatal(err)
				}
			case tc.name == "replan" || tc.name == "replan/distributed":
				pend(s)
				if _, err := s.Register("c", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 7))"); err != nil {
					t.Fatal(err)
				}
			default: // close: the runner's own Close flushes the pending rows
				pend(s)
				s.mu.Lock()
				s.pipe.runner.Close()
				s.mu.Unlock()
			}
			for i, ch := range parked {
				select {
				case <-ch:
				default:
					t.Fatalf("ring %d's parked reader was not woken by the delivery", i)
				}
			}
			await("a", rowsA, keys)
			await("b", rowsB, keys)
		})
	}
}
