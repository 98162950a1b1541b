// HTTP handlers over the Server; see Handler for the route table.

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"factorwindows/internal/admit"
	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
	"factorwindows/internal/wire"
)

// ingestChunk is how many events every ingest codec groups into one
// engine batch. One shared granularity matters beyond tuning: the
// watermark advances per engine batch, and together with the shard
// runner's drain (one shard-ordered delivery per batch barrier, for
// goroutine and worker shards alike) the batch cadence fully decides
// how result rows land in the rings — so it must not depend on which
// Content-Type carried the events (the cross-codec equivalence test
// pins this). Chunks also release the ingest lock between each other so
// concurrent clients interleave.
const ingestChunk = 8192

// Handler returns the server's HTTP API:
//
//	POST   /queries              register a query (JSON {"id","query"} or raw ASAQL text)
//	GET    /queries              list live queries
//	GET    /queries/{id}         one query's state
//	DELETE /queries/{id}         unregister
//	GET    /queries/{id}/results cursor read: ?after=<seq>&limit=<n>
//	GET    /queries/{id}/stream  long-poll result stream: ?after=<seq>; NDJSON,
//	                             or binary frames via Accept: application/x-fw-frame
//	POST   /ingest               events by Content-Type: JSON array, NDJSON
//	                             stream, CSV, or binary frames (application/x-fw-frame)
//	POST   /replan               re-optimize in place (?eta=<rate> re-prices the cost model)
//	GET    /stats                server-wide stats
//	GET    /checkpoint           binary state snapshot
//	POST   /checkpoint           durable servers: write a WAL-offset-stamped snapshot
//	                             asynchronously and truncate the covered log prefix
//	POST   /restore              replace state from a snapshot
//	POST   /topology             distributed servers: mutate the worker topology
//	                             ({"op":"add-worker"|"move"|"drain","addr",...,"shard"})
//	GET    /healthz              liveness: 200 unless the server is closed
//	GET    /readyz               readiness: 503 + Retry-After while degraded or closed
//
// Overloaded ingest sheds with 429 + Retry-After (see Config's
// admission budgets); a fail-stopped durable log degrades ingest to
// 503 while reads keep serving. Handler panics are recovered into 500s
// and counted in /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /queries", s.handleRegister)
	mux.HandleFunc("GET /queries", s.handleListQueries)
	mux.HandleFunc("GET /queries/{id}", s.handleGetQuery)
	mux.HandleFunc("DELETE /queries/{id}", s.handleUnregister)
	mux.HandleFunc("GET /queries/{id}/results", s.handleResults)
	mux.HandleFunc("GET /queries/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /replan", s.handleReplan)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /checkpoint", s.handleSnapshot)
	mux.HandleFunc("POST /restore", s.handleRestore)
	mux.HandleFunc("POST /topology", s.handleTopology)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s.recoverPanics(mux)
}

// recoverPanics converts a handler panic into a 500 JSON error instead
// of tearing down the connection, and counts it in /stats so operators
// see a panic rate. http.ErrAbortHandler re-panics: it is the
// sanctioned way to abort a response mid-body and must keep working.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.panics.Add(1)
			writeJSON(w, http.StatusInternalServerError, map[string]string{
				"error": fmt.Sprintf("server: internal error: %v", v),
			})
		}()
		next.ServeHTTP(w, r)
	})
}

// httpError maps server errors onto statuses: registry misses are 404,
// conflicts 409, body limits 413, admission sheds 429 + Retry-After,
// degraded durable log or closure 503 (degraded also hints
// Retry-After), anything else (parse/validation) 400.
func (s *Server) httpError(w http.ResponseWriter, err error) {
	code, msg := s.errorStatus(w, err)
	writeJSON(w, code, map[string]string{"error": msg})
}

// ingestError is httpError for the chunked ingest paths, which apply a
// body chunk by chunk: the error body also carries the status of the
// chunks already applied when the error cut the request short, so a
// client can tell a clean rejection ("accepted": 0) from a partial
// ingest it must not blindly retry.
func (s *Server) ingestError(w http.ResponseWriter, err error, applied IngestStatus) {
	code, msg := s.errorStatus(w, err)
	writeJSON(w, code, struct {
		Error string `json:"error"`
		IngestStatus
	}{msg, applied})
}

// errorStatus picks the status code and message for err and sets the
// headers that go with it.
func (s *Server) errorStatus(w http.ResponseWriter, err error) (int, string) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge,
			fmt.Sprintf("server: request body exceeds the %d-byte limit", maxErr.Limit)
	}
	if shed := (*admit.ShedError)(nil); errors.As(err, &shed) {
		w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
		return http.StatusTooManyRequests, err.Error()
	}
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		code = http.StatusConflict
	case errors.Is(err, ErrDegraded):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, admit.ErrOverloaded):
		// Sheds normally arrive as *ShedError above; the bare sentinel
		// still maps to 429 with the configured hint.
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrEngine):
		code = http.StatusInternalServerError
	}
	return code, err.Error()
}

// retryAfterSeconds renders a backoff hint in the whole-second form the
// Retry-After header requires, rounding up and never below 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// registerRequest is the JSON body of POST /queries; a non-JSON body is
// treated as the raw query text with the id taken from ?id=.
type registerRequest struct {
	ID    string `json:"id"`
	Query string `json:"query"`
}

// maxRegisterBody caps POST /queries bodies; a query over a mebibyte
// is a client bug, not a workload. Oversized bodies get a 413 naming
// the limit instead of being silently truncated into a parse error.
const maxRegisterBody = 1 << 20

// maxRestoreBody caps POST /restore snapshot uploads the same way.
const maxRestoreBody = 64 << 20

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRegisterBody+1))
	if err != nil {
		s.httpError(w, err)
		return
	}
	if len(body) > maxRegisterBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("server: register body exceeds the %d-byte limit", maxRegisterBody),
		})
		return
	}
	req := registerRequest{ID: r.URL.Query().Get("id")}
	mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mt == "application/json" {
		if err := json.Unmarshal(body, &req); err != nil {
			s.httpError(w, fmt.Errorf("server: request body: %w", err))
			return
		}
	} else {
		req.Query = string(body)
	}
	qi, err := s.Register(req.ID, req.Query)
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, qi)
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"queries": s.Queries()})
}

func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	qi, err := s.Query(r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, qi)
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if err := s.Unregister(r.PathValue("id")); err != nil {
		s.httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// cursor parses ?after= (default -1: from the beginning of the buffer).
// A cursor is the last sequence number a reader has seen, so none lies
// below -1.
func cursor(r *http.Request) (int64, error) {
	raw := r.URL.Query().Get("after")
	if raw == "" {
		return -1, nil
	}
	after, err := strconv.ParseInt(raw, 10, 64)
	if err == nil && after < -1 {
		err = fmt.Errorf("%d is below -1", after)
	}
	return after, err
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	after, err := cursor(r)
	if err != nil {
		s.httpError(w, fmt.Errorf("server: bad after cursor: %w", err))
		return
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil {
			s.httpError(w, fmt.Errorf("server: bad limit: %w", err))
			return
		}
	}
	rg, err := s.ringOf(r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	var chunk runChunk
	missed := rg.readRuns(after, limit, &chunk)
	next := after
	if n := chunk.rows(); n > 0 {
		next = chunk.firstSeq + int64(n) - 1
	}
	// Hand-rolled for the same reason as the stream path: encoding/json
	// rejects NaN (an under-filled TOPK window), aborting the body after
	// the 200 header. Byte-compatible with the json.Encoder output it
	// replaces; NaN renders as null.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bufp := streamio.GetEncodeBuf()
	defer streamio.PutEncodeBuf(bufp)
	buf := append((*bufp)[:0], `{"missed":`...)
	buf = strconv.AppendInt(buf, missed, 10)
	buf = append(buf, `,"next":`...)
	buf = strconv.AppendInt(buf, next, 10)
	buf = append(buf, `,"results":`...)
	if chunk.rows() == 0 {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		buf = chunk.appendJSON(buf, ',')
		buf[len(buf)-1] = ']' // the array has no trailing comma
	}
	buf = append(buf, '}', '\n')
	*bufp = buf
	w.Write(buf)
}

// streamChunk is how many buffered rows one stream poll drains.
const streamChunk = 1024

// runChunkPool recycles the per-connection staging chunk of the stream
// readers.
var runChunkPool = sync.Pool{New: func() any {
	return &runChunk{keys: make([]uint64, 0, streamChunk), vals: make([]float64, 0, streamChunk)}
}}

// appendJSON appends each row of the chunk as a JSON object followed by
// sep ('\n' makes the chunk NDJSON), byte-compatible with json.Encoder
// over ResultRow (field order follows the struct tags) except that a
// non-finite value renders as null. It is the one row encoder of the
// stream and cursor-read handlers, and it is run-native: the
// `"range":…,"key":` span that a run's rows share is rendered once per
// run, with no row-to-row comparison. So is the `{"seq":…,` head in
// front of it: a run's sequence numbers are consecutive, so the head is
// counted up in place from row to row, and each row starts with one
// copy of the head and span. A chunk whose numbers leave [0, MaxInt64]
// renders each row's head anew.
func (c *runChunk) appendJSON(dst []byte, sep byte) []byte {
	var spanBuf [120]byte
	var prefixBuf [28 + 120]byte // the head (`{"seq":`, a sign, 19 digits, ','), then the span
	counted := c.firstSeq >= 0 && c.firstSeq <= math.MaxInt64-int64(max(c.rows()-1, 0))
	at := 0
	for _, r := range c.runs {
		span := streamio.AppendWindowFields(spanBuf[:0], r.Range, r.Slide, r.Start, r.End)
		prefix := append(appendSeqHead(prefixBuf[:0], c.firstSeq+int64(at)), span...)
		for end := at + r.N; at < end; at++ {
			dst = append(dst, prefix...)
			dst = streamio.AppendKeyValue(dst, c.keys[at], c.vals[at])
			dst = append(dst, '}', sep)
			if !counted || !incSeqHead(prefix[:len(prefix)-len(span)]) {
				prefix = append(appendSeqHead(prefixBuf[:0], c.firstSeq+int64(at)+1), span...)
			}
		}
	}
	return dst
}

// appendSeqHead appends a result row's `{"seq":<seq>,` head.
func appendSeqHead(dst []byte, seq int64) []byte {
	return append(streamio.AppendInt(append(dst, `{"seq":`...), seq), ',')
}

// incSeqHead counts a non-negative head from appendSeqHead up by one in
// place: nines roll over to zeros until a digit can be incremented. It
// reports false when the carry runs past the top digit, so the number
// grows a digit and the head must be rendered anew.
func incSeqHead(head []byte) bool {
	for i := len(head) - 2; head[i] != ':'; i-- {
		if head[i] != '9' {
			head[i]++
			return true
		}
		head[i] = '0'
	}
	return false
}

// acceptsFrames reports whether the request's Accept header asks for
// the binary frame format. Parsing is per media type, like the ingest
// dispatch — substring matching is what satellite types exploit.
func acceptsFrames(r *http.Request) bool {
	for part := range strings.SplitSeq(r.Header.Get("Accept"), ",") {
		if mt, _, err := mime.ParseMediaType(strings.TrimSpace(part)); err == nil && mt == ContentTypeFrame {
			return true
		}
	}
	return false
}

// appendFrame encodes the chunk as a single binary result frame under
// streamID. Ring sequence numbers are consecutive and a chunk is a
// contiguous range, so the frame carries only the chunk's first
// sequence number and the per-row sequence column stays off the wire.
// Each run fills its stretch of the four header columns and copies its
// stretch of the key and value columns.
func (c *runChunk) appendFrame(dst []byte, streamID uint32) []byte {
	enc := wire.BeginResultFrame(dst, streamID, c.firstSeq, c.rows())
	at := 0
	for _, r := range c.runs {
		enc.SetRun(at, r.Range, r.Slide, r.Start, r.End, c.keys[at:at+r.N], c.vals[at:at+r.N])
		at += r.N
	}
	return enc.Bytes()
}

// handleStream writes results as NDJSON — or, when the Accept header
// names the frame media type, as binary columnar frames (one frame per
// drained chunk) — blocking for new rows until the client disconnects,
// the query is unregistered, or the server closes. The wire loop is
// allocation-free per poll either way: runs drain into a pooled staging
// chunk, the whole chunk encodes into a pooled byte buffer, and one
// Write hands it to the response.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	after, err := cursor(r)
	if err != nil {
		s.httpError(w, fmt.Errorf("server: bad after cursor: %w", err))
		return
	}
	rg, err := s.ringOf(r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	binary := acceptsFrames(r)
	if binary {
		w.Header().Set("Content-Type", ContentTypeFrame)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	follow(rg, after, r.Context().Done(), nil, nil, func(dst []byte, c *runChunk) ([]byte, error) {
		if binary {
			dst = c.appendFrame(dst, 0)
		} else {
			dst = c.appendJSON(dst, '\n')
		}
		if _, err := w.Write(dst); err != nil {
			return dst, err
		}
		rc.Flush()
		return dst, nil
	})
}

// follow is the one subscription loop behind both stream readers,
// handleStream and the listener's streamSub; only the framing differs.
// From cursor after it fetches the ring's wake channel (before reading,
// so no wakeup is missed), drains up to streamChunk rows as runs into a
// pooled chunk, and hands the chunk to send, which encodes it into the
// pooled buffer it is given and writes it; the cursor then moves past
// the chunk. A non-nil gap is told, before the rows that survive are
// sent, how many rows the ring evicted past the cursor and the first
// sequence number still held; a nil gap ignores them. With nothing left
// to drain, follow returns true once the ring is closed (the query
// unregistered or the server shut down) and otherwise parks until the
// ring wakes it (a delivery appended rows, or a full poll accumulated)
// or done or stop fires (a nil channel never fires). It returns false
// when done or stop fired or send failed.
func follow(rg *ring, after int64, done, stop <-chan struct{}, gap func(missed, first int64), send func(dst []byte, c *runChunk) ([]byte, error)) bool {
	chunk := runChunkPool.Get().(*runChunk)
	defer runChunkPool.Put(chunk)
	bufp := streamio.GetEncodeBuf()
	defer streamio.PutEncodeBuf(bufp)
	for {
		wake := rg.waitCh() // fetch before reading: no missed wakeups
		if missed := rg.readRuns(after, streamChunk, chunk); missed > 0 {
			if gap != nil {
				gap(missed, after+1+missed)
			}
			after += missed
		}
		if n := chunk.rows(); n > 0 {
			buf, err := send((*bufp)[:0], chunk)
			*bufp = buf
			if err != nil {
				return false
			}
			after = chunk.firstSeq + int64(n) - 1
			continue
		}
		if rg.isClosed() {
			return true
		}
		select {
		case <-done:
			return false
		case <-stop:
			return false
		case <-wake:
		}
	}
}

// ContentTypeFrame is the media type of the binary columnar frame
// format (internal/wire): POST /ingest accepts it as a request body,
// and GET /queries/{id}/stream serves it when the client's Accept
// header asks for it.
const ContentTypeFrame = "application/x-fw-frame"

// ingestMediaTypes maps each supported Content-Type onto its decode
// path. Dispatch is on the exact parsed media type — substring sniffing
// admitted garbage like "application/njsonx" as NDJSON.
var ingestMediaTypes = map[string]string{
	"application/json":     "json",
	"application/x-ndjson": "ndjson",
	"application/ndjson":   "ndjson",
	"text/csv":             "csv",
	"application/csv":      "csv",
	ContentTypeFrame:       "frame",
}

// supportedIngestTypes lists the accepted media types for the 415 body,
// stable order.
var supportedIngestTypes = []string{
	"application/json", "application/x-ndjson", "application/ndjson",
	"text/csv", "application/csv", ContentTypeFrame,
}

// ingestDefaultCharge is the admission charge for an ingest request
// that declares no Content-Length (chunked transfer): without a size
// up front, charge a conservative 1 MiB so unbounded chunked floods
// still meet the budgets.
const ingestDefaultCharge = 1 << 20

// ingestCharge converts a request's Content-Length into the byte
// charge admission holds for the request's lifetime.
func ingestCharge(contentLength int64) int64 {
	if contentLength < 0 {
		return ingestDefaultCharge
	}
	return contentLength // Acquire rounds 0 up to 1
}

// sourceOf reduces a RemoteAddr to the per-source admission key: the
// host without the ephemeral port, so one client's connections share a
// budget.
func sourceOf(remoteAddr string) string {
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return remoteAddr
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.admit != nil {
		g, err := s.admit.Acquire(sourceOf(r.RemoteAddr), ingestCharge(r.ContentLength))
		if err != nil {
			s.httpError(w, err)
			return
		}
		defer g.Release()
	}
	codec := "json" // historical default: a bare POST carries a JSON array
	if ct := r.Header.Get("Content-Type"); strings.TrimSpace(ct) != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil {
			writeJSON(w, http.StatusUnsupportedMediaType, map[string]any{
				"error":     fmt.Sprintf("server: malformed Content-Type %q: %v", ct, err),
				"supported": supportedIngestTypes,
			})
			return
		}
		var ok bool
		if codec, ok = ingestMediaTypes[mt]; !ok {
			writeJSON(w, http.StatusUnsupportedMediaType, map[string]any{
				"error":     fmt.Sprintf("server: unsupported Content-Type %q", mt),
				"supported": supportedIngestTypes,
			})
			return
		}
	}
	switch codec {
	case "ndjson":
		s.ingestNDJSON(w, r)
	case "csv":
		s.ingestBuffered(w, r, func(dst []stream.Event, body io.Reader) ([]stream.Event, error) {
			sc, putScanBuf := streamio.NewLineScanner(body)
			defer putScanBuf()
			return streamio.AppendCSV(dst, sc)
		})
	case "frame":
		s.ingestFrames(w, r)
	default: // JSON array
		s.ingestBuffered(w, r, func(dst []stream.Event, body io.Reader) ([]stream.Event, error) {
			dst, err := streamio.AppendJSONArray(dst, body)
			if err != nil {
				err = fmt.Errorf("server: request body: %w", err)
			}
			return dst, err
		})
	}
}

// frameBatchPool recycles the per-request event staging batch (the
// scanner's line buffer comes from streamio's shared pool). Ingest
// copies events out before it returns, so a batch goes back once its
// handler finishes. Binary frames carry whole client-side batches (up
// to wire.MaxFrameRows) and the buffering codecs a whole body, so
// batches may grow past ingestChunk; oversized ones are dropped instead
// of pooled.
var frameBatchPool = sync.Pool{New: func() any {
	s := make([]stream.Event, 0, ingestChunk)
	return &s
}}

// frameBatchRetain bounds the pooled staging capacity, in events.
const frameBatchRetain = 1 << 16

// putFrameBatch returns a staging batch borrowed from frameBatchPool.
func putFrameBatch(batchp *[]stream.Event) {
	if cap(*batchp) <= frameBatchRetain {
		*batchp = (*batchp)[:0]
		frameBatchPool.Put(batchp)
	}
}

// ingestTotal is the one chunking loop behind every ingest codec: it
// applies a request's staged events to the server in ingestChunk
// batches and accumulates their status over the chunks applied so far.
type ingestTotal struct {
	IngestStatus
	chunks int
}

// flush applies batch in ingestChunk batches — only whole ones unless
// final — and returns the unapplied rest, moved to the front of batch's
// array for more staging. A final flush of a request that applied
// nothing at all — an empty body — still makes one Ingest call, so
// every codec replies with the server's live status.
func (t *ingestTotal) flush(s *Server, batch []stream.Event, final bool) ([]stream.Event, error) {
	off := 0
	for ; len(batch)-off >= ingestChunk || final && (off < len(batch) || t.chunks == 0); off += ingestChunk {
		if err := t.apply(s, batch[off:min(off+ingestChunk, len(batch))]); err != nil {
			return batch, err
		}
	}
	if off == 0 {
		return batch, nil
	}
	return append(batch[:0], batch[min(off, len(batch)):]...), nil
}

// apply ingests one chunk and folds its status into the total: counts
// add up, the server-wide readings take the latest chunk's, and the
// durable bit covers the whole request — every chunk's record must have
// been fsync-acked.
func (t *ingestTotal) apply(s *Server, chunk []stream.Event) error {
	st, err := s.Ingest(chunk)
	if err != nil {
		return err
	}
	t.Accepted += st.Accepted
	t.Dropped += st.Dropped
	t.Late, t.Buffered, t.Epoch = st.Late, st.Buffered, st.Epoch
	t.Durable = st.Durable && (t.chunks == 0 || t.Durable)
	t.chunks++
	return nil
}

// ingestFrames consumes a stream of binary columnar event frames: the
// frames' column vectors scatter straight into the pooled staging slice
// (no per-event decode work or structs on the wire), which hands the
// pipeline one batch per ingestChunk events regardless of how the
// client framed them, so frame boundaries never change the watermark
// cadence. Chunk flushes release the ingest lock between each other so
// concurrent clients interleave, like the NDJSON path. A client that
// frames in ingestChunk-row frames hits the exact-alignment fast path:
// every flush drains the staging slice completely and no rows carry
// over between frames.
func (s *Server) ingestFrames(w http.ResponseWriter, r *http.Request) {
	fr := wire.NewReader(r.Body)
	defer fr.Close()
	batchp := frameBatchPool.Get().(*[]stream.Event)
	defer putFrameBatch(batchp)
	batch := (*batchp)[:0]
	defer func() { *batchp = batch }()
	var (
		total  ingestTotal
		frames int
	)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		frames++
		if err != nil {
			s.ingestError(w, fmt.Errorf("server: frame %d: %w", frames, err), total.IngestStatus)
			return
		}
		if f.Kind != wire.KindEvents {
			s.ingestError(w, fmt.Errorf("server: frame %d: kind %d is not an event frame", frames, f.Kind), total.IngestStatus)
			return
		}
		if batch, err = total.flush(s, f.AppendEvents(batch), false); err != nil {
			s.ingestError(w, err, total.IngestStatus)
			return
		}
	}
	if _, err := total.flush(s, batch, true); err != nil {
		s.ingestError(w, err, total.IngestStatus)
		return
	}
	writeJSON(w, http.StatusOK, total.IngestStatus)
}

// ingestBuffered serves the buffering codecs (CSV, JSON array): decode
// must read the whole body before the first event reaches the pipeline,
// so the body gets a hard cap — the streaming codecs (NDJSON, frames)
// hold at most one chunk and are bounded by admission instead. Events
// decode into the pooled staging slice and are applied in ingestChunk
// batches.
func (s *Server) ingestBuffered(w http.ResponseWriter, r *http.Request, decode func([]stream.Event, io.Reader) ([]stream.Event, error)) {
	batchp := frameBatchPool.Get().(*[]stream.Event)
	defer putFrameBatch(batchp)
	events, err := decode((*batchp)[:0], http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	*batchp = events
	if err != nil {
		s.httpError(w, err)
		return
	}
	var total ingestTotal
	if _, err := total.flush(s, events, true); err != nil {
		s.ingestError(w, err, total.IngestStatus)
		return
	}
	writeJSON(w, http.StatusOK, total.IngestStatus)
}

// ingestNDJSON consumes an event-per-line stream incrementally, handing
// the pipeline one batch per ingestChunk lines. The staging batch and
// scanner buffer are pooled and lines decode in place from the scanner's
// bytes, so the loop allocates nothing per line.
func (s *Server) ingestNDJSON(w http.ResponseWriter, r *http.Request) {
	sc, putScanBuf := streamio.NewLineScanner(r.Body)
	defer putScanBuf()
	batchp := frameBatchPool.Get().(*[]stream.Event)
	defer putFrameBatch(batchp)
	var total ingestTotal
	if err := s.decodeNDJSON(sc, (*batchp)[:0], &total); err != nil {
		s.ingestError(w, err, total.IngestStatus)
		return
	}
	writeJSON(w, http.StatusOK, total.IngestStatus)
}

// decodeNDJSON is ingestNDJSON's loop: it stages sc's event lines into
// batch (never past ingestChunk) and applies every full chunk, then the
// remainder. A decode error leaves the chunk being staged unapplied.
func (s *Server) decodeNDJSON(sc *bufio.Scanner, batch []stream.Event, total *ingestTotal) error {
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		e, err := streamio.DecodeEventJSON(text)
		if err != nil {
			return fmt.Errorf("server: line %d: %w", line, err)
		}
		if batch, err = total.flush(s, append(batch, e), false); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	_, err := total.flush(s, batch, true)
	return err
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsNow())
}

// handleHealthz is liveness: 200 while the process can serve anything
// at all — including degraded mode, where reads still work — and 503
// only once the server is closed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Status == "closed" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleReadyz is readiness: 503 + Retry-After whenever the server
// cannot accept mutations (degraded durable log, engine failure, or
// closed), so load balancers stop routing writes while reads keep
// draining through the still-200 /healthz backends.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if !h.Ready {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleReplan re-optimizes the live query set in place. Open window
// state migrates exactly, so the swap is invisible in the result
// streams; ?eta= re-prices the cost model at that event rate first.
func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	var eta int64
	if raw := r.URL.Query().Get("eta"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 1 {
			s.httpError(w, fmt.Errorf("server: bad eta %q (want a positive integer)", raw))
			return
		}
		eta = v
	}
	if err := s.Replan(eta); err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.StatsNow())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	data, err := s.Checkpoint()
	if err != nil {
		s.httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleSnapshot (POST /checkpoint) captures a durable snapshot now and
// writes it asynchronously; 202 with the offset it will cover. 404 on a
// non-durable server, 409 while a previous write is still in flight.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	offset, err := s.Snapshot()
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"snapshot_offset": offset})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRestoreBody+1))
	if err != nil {
		s.httpError(w, err)
		return
	}
	if len(data) > maxRestoreBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("server: restore body exceeds the %d-byte limit", maxRestoreBody),
		})
		return
	}
	if err := s.RestoreCheckpoint(data); err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": s.Queries(), "stats": s.StatsNow()})
}

// topologyRequest is the JSON body of POST /topology.
type topologyRequest struct {
	Op    string `json:"op"`    // add-worker | move | drain
	Addr  string `json:"addr"`  // worker address the op targets
	Shard *int   `json:"shard"` // move only: which shard to reassign
}

// handleTopology mutates the distributed worker topology: admit or
// revive a worker, move one shard, or drain a worker entirely. Replies
// with the resulting topology so the caller sees placement, not just
// success. Single-process servers answer 409.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	var req topologyRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRegisterBody)).Decode(&req); err != nil {
		s.httpError(w, fmt.Errorf("server: decoding topology request: %w", err))
		return
	}
	var err error
	switch req.Op {
	case "add-worker":
		err = s.AddWorker(req.Addr)
	case "move":
		if req.Shard == nil {
			s.httpError(w, errors.New(`server: topology op "move" needs a shard`))
			return
		}
		err = s.MoveShard(*req.Shard, req.Addr)
	case "drain":
		err = s.DrainWorker(req.Addr)
	default:
		s.httpError(w, fmt.Errorf("server: unknown topology op %q", req.Op))
		return
	}
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "topology": s.TopologyNow()})
}
