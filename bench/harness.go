package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factorwindows/internal/server"
	"factorwindows/internal/shardworker"
	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
)

// visibleTimeout bounds one batch's wait for its rows on the streams. A
// batch takes milliseconds; ten seconds means something is stuck, and
// the operation counts as failed.
const visibleTimeout = 10 * time.Second

// Admission budgets of durable_admit: far above one 192 KiB body in
// flight, so admission is exercised and never sheds.
const admitBudget = 64 << 20

// snapshotEvery makes durable_admit capture an async snapshot a few
// times a second at its batch rate.
const snapshotEvery = 256

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// streamReader is the ResponseWriter of one long-lived GET
// /queries/{id}/stream: it counts the rows the server writes, checks that
// their sequence numbers are contiguous, digests the bytes, and
// optionally decodes the rows for the reference check. It stands in for
// the kernel socket and the client behind it.
type streamReader struct {
	hdr     http.Header
	binary  bool
	collect bool

	rows atomic.Int64 // published after every field below is updated
	wake chan struct{}

	// Written by the handler goroutine only; the harness reads them once
	// rows has reached the count it waits for.
	crc     uint32
	nextSeq int64
	lost    int64
	err     error
	got     []stream.Result
}

func newStreamReader(binary, collect bool) *streamReader {
	// wake holds one pending signal: the waiter re-checks rows after each.
	return &streamReader{hdr: make(http.Header), binary: binary, collect: collect, wake: make(chan struct{}, 1)}
}

func (r *streamReader) Header() http.Header { return r.hdr }
func (r *streamReader) WriteHeader(int)     {}
func (r *streamReader) Flush()              {}

func (r *streamReader) Write(p []byte) (int, error) {
	var n int64
	var err error
	if r.binary {
		n, err = r.scanFrames(p)
	} else {
		n, err = r.scanLines(p)
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	r.rows.Add(n)
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (r *streamReader) seq(first, n int64) {
	if first != r.nextSeq {
		r.lost += first - r.nextSeq
	}
	r.nextSeq = first + n
}

func (r *streamReader) scanFrames(p []byte) (int64, error) {
	var rows int64
	for len(p) > 0 {
		f, rest, err := wire.Decode(p)
		if err != nil {
			return rows, fmt.Errorf("stream frame: %w", err)
		}
		if f.Kind != wire.KindResults {
			return rows, fmt.Errorf("stream frame: kind %d", f.Kind)
		}
		n := int64(f.Rows())
		r.seq(f.Seq, n)
		// How the rows fall into frames depends on when the handler woke,
		// so the digest is over the rows, not the frame bytes.
		var row [7 * 8]byte
		for i := 0; i < f.Rows(); i++ {
			seq, rng, slide, start, end, key, value := f.Result(i)
			for j, v := range [...]uint64{uint64(seq), uint64(rng), uint64(slide), uint64(start), uint64(end), key, math.Float64bits(value)} {
				binary.LittleEndian.PutUint64(row[j*8:], v)
			}
			r.crc = crc32.Update(r.crc, castagnoli, row[:])
			if r.collect {
				r.got = append(r.got, stream.Result{W: window.Window{Range: rng, Slide: slide},
					Start: start, End: end, Key: key, Value: value})
			}
		}
		rows += n
		p = rest
	}
	return rows, nil
}

func (r *streamReader) scanLines(p []byte) (int64, error) {
	n := int64(bytes.Count(p, []byte{'\n'}))
	if n == 0 {
		return 0, nil
	}
	r.crc = crc32.Update(r.crc, castagnoli, p) // whole rows, so independent of write boundaries
	if !r.collect {
		first, _, err := parseRow(p)
		if err != nil {
			return n, err
		}
		r.seq(first.seq, n)
		return n, nil
	}
	for i := int64(0); len(p) > 0; i++ {
		row, rest, err := parseRow(p)
		if err != nil {
			return n, err
		}
		if i == 0 {
			r.seq(row.seq, n)
		}
		r.got = append(r.got, row.res)
		p = rest
	}
	return n, nil
}

type seqRow struct {
	seq int64
	res stream.Result
}

// parseRow reads one NDJSON stream row off the front of p. The server
// renders rows with a fixed field order, and the reference check decodes
// over a million of them per run, so this matches that layout directly
// and fails on anything else.
func parseRow(p []byte) (seqRow, []byte, error) {
	var row seqRow
	var v [7]int64
	for i, name := range [...]string{`{"seq":`, `,"range":`, `,"slide":`, `,"start":`, `,"end":`, `,"key":`, `,"value":`} {
		if !bytes.HasPrefix(p, []byte(name)) {
			return row, p, fmt.Errorf("stream row: want %s at %.40q", name, p)
		}
		p = p[len(name):]
		j := 0
		for j < len(p) && p[j] >= '0' && p[j] <= '9' {
			v[i] = v[i]*10 + int64(p[j]-'0')
			j++
		}
		if j == 0 {
			return row, p, fmt.Errorf("stream row: want digits after %s at %.40q", name, p)
		}
		p = p[j:]
	}
	if !bytes.HasPrefix(p, []byte("}\n")) {
		return row, p, fmt.Errorf("stream row: want end of row at %.40q", p)
	}
	row.seq = v[0]
	row.res = stream.Result{W: window.Window{Range: v[1], Slide: v[2]}, Start: v[3], End: v[4], Key: uint64(v[5]), Value: float64(v[6])}
	return row, p[2:], nil
}

// connCounters counts what crosses the router's worker connections.
type connCounters struct {
	writes, written, read atomic.Int64
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.written.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.read.Add(int64(n))
	return n, err
}

func (c *connCounters) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return countingConn{conn, c}, nil
}

// workerSet is the two in-process shard workers of distributed_2w, on
// real loopback listeners: that hop is the layer under test.
type workerSet struct {
	workers []*shardworker.Worker
	addrs   []string
	served  sync.WaitGroup
}

func startWorkers(n int) (*workerSet, error) {
	ws := &workerSet{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ws.close()
			return nil, fmt.Errorf("worker listener: %w", err)
		}
		w := shardworker.New()
		ws.workers = append(ws.workers, w)
		ws.addrs = append(ws.addrs, ln.Addr().String())
		ws.served.Add(1)
		go func() {
			defer ws.served.Done()
			_ = w.Serve(ln) // returns nil after Close; an accept error surfaces as a failed dial
		}()
	}
	return ws, nil
}

func (ws *workerSet) close() {
	for _, w := range ws.workers {
		w.Close()
	}
	ws.served.Wait()
}

// deployment is one server of a workload's configuration with its
// queries registered and their stream readers attached.
type deployment struct {
	spec    spec
	srv     *server.Server
	h       http.Handler
	ids     []string
	readers []*streamReader
	reading sync.WaitGroup

	workers *workerSet
	conns   connCounters
	walDir  string

	req   *http.Request
	body  bytes.Reader
	resp  ingestResponse
	timer *time.Timer

	registerTime time.Duration

	// tr, when set, records a span around every harness→server call;
	// batch labels them.
	tr    *tracer
	batch int
}

// ingestResponse absorbs the POST /ingest reply.
type ingestResponse struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *ingestResponse) Header() http.Header { return w.hdr }
func (w *ingestResponse) WriteHeader(c int)   { w.code = c }
func (w *ingestResponse) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// deploy builds the server (and WAL directory, and workers), registers
// the two queries over HTTP and starts one stream reader per query.
// scratch is a directory inside the checkout for the WAL.
func deploy(s spec, scratch string, collect bool) (d *deployment, err error) {
	d = &deployment{spec: s}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	cfg := server.Config{
		Shards:       shards,
		Factors:      true,
		ReorderBound: s.reorderBound,
		ResultBuffer: s.resultBuffer,
	}
	if s.durable {
		if d.walDir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
			return d, err
		}
		cfg.Durable = true
		cfg.WALDir = d.walDir
		cfg.Fsync = wal.FsyncInterval
		cfg.SnapshotEvery = snapshotEvery
		cfg.MaxInflightBytes = admitBudget
		cfg.MaxSourceBytes = admitBudget
		cfg.AdmitWait = time.Second
	}
	if s.distributed {
		if d.workers, err = startWorkers(shards); err != nil {
			return d, err
		}
		cfg.Workers = d.workers.addrs
		cfg.WorkerDial = d.conns.dial
	}
	if d.srv, err = server.Open(cfg); err != nil {
		return d, fmt.Errorf("open server: %w", err)
	}
	d.h = d.srv.Handler()

	start := time.Now()
	for _, q := range s.queries() {
		req := httptest.NewRequest("POST", "/queries?id="+q.id, strings.NewReader(q.sql))
		req.Header.Set("Content-Type", "text/plain")
		rec := httptest.NewRecorder()
		d.h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			return d, fmt.Errorf("register %s: status %d: %s", q.id, rec.Code, rec.Body.String())
		}
		d.ids = append(d.ids, q.id)
	}
	d.registerTime = time.Since(start)

	for _, id := range d.ids {
		r := newStreamReader(s.codec == codecBinary, collect)
		req := httptest.NewRequest("GET", "/queries/"+id+"/stream?after=-1", nil)
		if r.binary {
			req.Header.Set("Accept", server.ContentTypeFrame)
		}
		d.readers = append(d.readers, r)
		d.reading.Add(1)
		go func() {
			defer d.reading.Done()
			d.h.ServeHTTP(r, req) // returns when the server closes the query's ring
		}()
	}

	d.req = httptest.NewRequest("POST", "/ingest", nil)
	if s.codec == codecBinary {
		d.req.Header.Set("Content-Type", server.ContentTypeFrame)
	} else {
		d.req.Header.Set("Content-Type", "application/x-ndjson")
	}
	d.resp.hdr = make(http.Header)
	d.timer = time.NewTimer(time.Hour)
	d.timer.Stop()
	return d, nil
}

// close tears the deployment down on every path: server (sealing the
// WAL), stream readers, workers, WAL directory.
func (d *deployment) close() error {
	var err error
	if d.srv != nil {
		err = d.srv.Shutdown()
		d.reading.Wait()
	}
	if d.workers != nil {
		d.workers.close()
	}
	if d.walDir != "" {
		if rmErr := os.RemoveAll(d.walDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// ingest is one operation: POST the body, then wait until every query's
// stream reader has been handed all rows the server had delivered when
// the POST returned. call is the time inside the ingest handler,
// visible the whole ingest-to-visible time.
func (d *deployment) ingest(body []byte) (call, visible time.Duration, err error) {
	d.body.Reset(body)
	d.req.Body = io.NopCloser(&d.body)
	d.req.ContentLength = int64(len(body))
	d.resp.code, d.resp.body = 0, d.resp.body[:0]

	start := time.Now()
	d.tr.begin("server.ingest", d.batch)
	d.h.ServeHTTP(&d.resp, d.req)
	d.tr.end()
	call = time.Since(start)
	if d.resp.code != http.StatusOK {
		return call, call, fmt.Errorf("ingest: status %d: %s", d.resp.code, d.resp.body)
	}
	d.tr.begin("server.stream_read", d.batch)
	err = d.awaitVisible()
	d.tr.end()
	return call, time.Since(start), err
}

func (d *deployment) awaitVisible() error {
	armed := false
	defer func() {
		if armed {
			d.timer.Stop()
		}
	}()
	for i, id := range d.ids {
		qi, err := d.srv.Query(id)
		if err != nil {
			return err
		}
		r := d.readers[i]
		for r.rows.Load() < qi.Delivered {
			if !armed {
				d.timer.Reset(visibleTimeout)
				armed = true
			}
			select {
			case <-r.wake:
			case <-d.timer.C:
				armed = false
				return fmt.Errorf("query %s: %d of %d rows visible after %v", id, r.rows.Load(), qi.Delivered, visibleTimeout)
			}
		}
		if r.err != nil {
			return fmt.Errorf("query %s: %w", id, r.err)
		}
		if r.lost != 0 {
			return fmt.Errorf("query %s: %d rows evicted before the stream read them", id, r.lost)
		}
	}
	return nil
}

// streamed is how many rows the readers have been handed so far, and
// the digest over them.
func (d *deployment) streamed() (rows int64, crc uint32) {
	for _, r := range d.readers {
		rows += r.rows.Load()
		crc = crc32.Update(crc, castagnoli, []byte{byte(r.crc), byte(r.crc >> 8), byte(r.crc >> 16), byte(r.crc >> 24)})
	}
	return rows, crc
}

// health checks the conditions that void a run whatever its timings: a
// poisoned pipeline, a shed, a failover, a degraded log.
func (d *deployment) health() error {
	st := d.srv.StatsNow()
	var errs []error
	if st.Error != "" {
		errs = append(errs, fmt.Errorf("pipeline poisoned: %s", st.Error))
	}
	if st.WALError != "" || st.SnapshotError != "" {
		errs = append(errs, fmt.Errorf("durable log: wal %q snapshot %q", st.WALError, st.SnapshotError))
	}
	if st.AdmitShed != 0 {
		errs = append(errs, fmt.Errorf("admission shed %d requests", st.AdmitShed))
	}
	if st.Dropped != 0 || st.Late != 0 {
		errs = append(errs, fmt.Errorf("%d events dropped, %d late", st.Dropped, st.Late))
	}
	if t := st.Topology; t != nil && (t.Failovers != 0 || t.ShedEvents != 0 || len(t.ShedShards) != 0) {
		errs = append(errs, fmt.Errorf("router: %d failovers, %d shed events, shed shards %v", t.Failovers, t.ShedEvents, t.ShedShards))
	}
	return errors.Join(errs...)
}
