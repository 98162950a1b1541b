package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"time"

	"factorwindows/internal/admit"
	"factorwindows/internal/core"
	"factorwindows/internal/cost"
	"factorwindows/internal/engine"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/reorder"
	"factorwindows/internal/router"
	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
	"factorwindows/internal/wal"
	"factorwindows/internal/wire"
)

// Trace pass names.
const (
	passServer = "server" // (a) the server loop, spans around harness→server calls
	passStaged = "staged" // (b) the ingest path rebuilt from the layers' public APIs
	passEngine = "engine" // (c) the same events through one engine.Runner
)

// streamChunk is how many rows the server's stream handler encodes per
// write; the staged egress encodes in the same runs.
const streamChunk = 1024

func optimizerOptions() core.Options {
	return core.Options{Factors: true, Model: cost.Model{Eta: 1}}
}

// execRunner is what the staged replay needs of parallel.Runner and
// router.Runner alike.
type execRunner interface {
	Process([]stream.Event)
	Advance(int64)
	Barrier()
	Close()
	Err() error
	SetOrderedDrain(bool)
}

// timedRunner is the reorder.Consumer the staged replay hands the
// reorder buffer: a span around each Process, so Push's self time is
// Push minus its consumer.
type timedRunner struct {
	execRunner
	tr    *tracer
	layer string // "parallel" or "router"
	batch int
}

func (r *timedRunner) Process(events []stream.Event) {
	r.tr.begin(r.layer+".process", r.batch)
	r.execRunner.Process(events)
	r.tr.end()
}

// timedSink wraps the multiquery routing sink. Its emit callback (the
// ring append's stand-in) is a child span, so the routing sink's self
// time is the time inside multiquery alone.
type timedSink struct {
	inner stream.Sink
	tr    *tracer
	batch *int
}

func (s *timedSink) Emit(r stream.Result) {
	s.tr.begin("multiquery.sink", *s.batch)
	s.inner.Emit(r)
	s.tr.end()
}

func (s *timedSink) EmitBatch(rs []stream.Result) {
	s.tr.begin("multiquery.sink", *s.batch)
	stream.EmitAll(s.inner, rs)
	s.tr.end()
}

// stagedStats is what the staged replay counts besides its spans.
type stagedStats struct {
	batches        int
	rows           int64
	ingestPathMS   []float64 // per batch: the mirrored ingest call
	routerNew      time.Duration
	bufferedPeak   int
	late           int64
	walRecordBytes int64
}

func (st *stagedStats) events() int64 { return int64(st.batches) * batchEvents }

// stagedReplay runs the batches through the layers in the order
// Server.handleIngest and Server.ingestLocked call them — decode →
// admit → WAL append → reorder push → runner process/advance/barrier →
// routing sink → row staging — then encodes the staged rows the way the
// stream handler does. One span per call; nothing inside the layers is
// touched. workers is the address list for distributed_2w.
func stagedReplay(s spec, in *inputs, dur time.Duration, tr *tracer, scratch string, workers []string) (st stagedStats, err error) {
	tr.setPass(passStaged)
	in.rewind()
	mp, err := multiquery.Optimize(s.multiqueries(), s.fn, optimizerOptions())
	if err != nil {
		return st, err
	}

	// Per-query row staging stands in for the server's private rings.
	batch := 0
	var ids []string
	for _, q := range s.queries() {
		ids = append(ids, q.id)
	}
	staged := make(map[string][]stream.Result)
	sink := &timedSink{tr: tr, batch: &batch, inner: mp.BatchSink(func(rb multiquery.RoutedBatch) {
		tr.begin("server.ring", batch)
		for _, id := range rb.QueryIDs {
			staged[id] = append(staged[id], rb.Results...)
		}
		tr.end()
	})}

	run := &timedRunner{tr: tr, layer: "parallel"}
	if s.distributed {
		run.layer = "router"
		start := time.Now()
		run.execRunner, err = router.New(router.Spec{
			Queries: s.multiqueries(), Fn: s.fn, Factors: true,
			Shards: shards, Workers: workers,
		}, sink)
		st.routerNew = time.Since(start)
	} else {
		run.execRunner, err = parallel.New(mp.Combined, sink, shards)
	}
	if err != nil {
		return st, err
	}
	defer run.Close()
	run.SetOrderedDrain(true)

	buf, err := reorder.New(run, s.reorderBound, reorder.Drop, func(stream.Event) { st.late++ })
	if err != nil {
		return st, err
	}

	var ctl *admit.Controller
	var log *wal.Log
	if s.durable {
		ctl = admit.New(admit.Options{GlobalBytes: admitBudget, SourceBytes: admitBudget, MaxWait: time.Second})
		dir, err := os.MkdirTemp(scratch, "wal-staged-")
		if err != nil {
			return st, err
		}
		defer os.RemoveAll(dir)
		if log, err = wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval}); err != nil {
			return st, err
		}
		defer log.Close(false)
	}

	events := make([]stream.Event, 0, batchEvents)
	var out []byte
	seq := int64(0)
	// One segment fills the key tables, scatter buffers and journals
	// before anything is recorded.
	tr.mute(true)
	start := time.Now()
	for warm := true; ; {
		body := in.encode(in.nextBatch())
		run.batch = batch

		tr.begin("ingest", batch)
		if s.codec == codecBinary {
			tr.begin("wire.decode", batch)
			events, err = decodeFrames(body, events[:0])
			tr.end()
		} else {
			tr.begin("streamio.decode", batch)
			events, err = streamio.ReadJSONL(bytes.NewReader(body))
			tr.end()
		}
		if err != nil {
			return st, err
		}
		var grant *admit.Grant
		var commit *wal.Commit
		if s.durable {
			tr.begin("admit.acquire", batch)
			grant, err = ctl.Acquire("bench", int64(len(body)))
			tr.end()
			if err != nil {
				return st, err
			}
			tr.begin("wal.append", batch)
			commit, err = log.Append(events)
			tr.end()
			if err != nil {
				return st, err
			}
			st.walRecordBytes += int64(len(body)) // the record is the event frame itself
		}
		tr.begin("reorder.push", batch)
		buf.Push(events)
		tr.end()
		if rel := buf.Released(); rel > reorder.NoRelease {
			tr.begin(run.layer+".advance", batch)
			run.Advance(rel)
			tr.end()
		}
		tr.begin(run.layer+".barrier", batch)
		run.Barrier()
		tr.end()
		if err := run.Err(); err != nil {
			return st, fmt.Errorf("staged replay: runner poisoned: %w", err)
		}
		st.bufferedPeak = max(st.bufferedPeak, buf.Buffered())
		if grant != nil {
			tr.begin("admit.release", batch)
			grant.Release()
			tr.end()
		}
		ingestPath := tr.end()

		// Egress: what the stream handlers do after the ack.
		name := "wire.encode"
		if s.codec == codecNDJSON {
			name = "streamio.encode"
		}
		tr.begin(name, batch)
		for _, id := range ids {
			rows := staged[id]
			for off := 0; off < len(rows); off += streamChunk {
				chunk := rows[off:min(off+streamChunk, len(rows))]
				out = encodeRows(out[:0], s.codec, seq, chunk)
				seq += int64(len(chunk))
			}
			st.rows += int64(len(rows))
			staged[id] = rows[:0]
		}
		tr.end()

		if commit != nil {
			// Under fsync=interval the server acks without waiting; this
			// measures how far the committer lags the ack, off the path.
			tr.begin("wal.commit_wait", batch)
			_, err = commit.Wait()
			tr.end()
			if err != nil {
				return st, err
			}
		}

		batch++
		if warm {
			if batch == segmentBatches {
				warm = false
				batch = 0
				tr.mute(false)
				st = stagedStats{routerNew: st.routerNew}
				start = time.Now()
			}
			continue
		}
		st.batches = batch
		st.ingestPathMS = append(st.ingestPathMS, ms(ingestPath))
		if batch%segmentBatches == 0 && time.Since(start) >= dur {
			break
		}
	}
	return st, nil
}

func decodeFrames(body []byte, dst []stream.Event) ([]stream.Event, error) {
	fr := wire.NewReader(bytes.NewReader(body))
	defer fr.Close()
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		dst = f.AppendEvents(dst)
	}
}

// encodeRows renders one drained run the way handleStream does: one
// binary result frame, or one NDJSON line per row.
func encodeRows(dst []byte, c codec, firstSeq int64, rows []stream.Result) []byte {
	if c == codecBinary {
		enc := wire.BeginResultFrame(dst, 0, firstSeq, len(rows))
		for i, r := range rows {
			enc.SetRow(i, r.W.Range, r.W.Slide, r.Start, r.End, r.Key, r.Value)
		}
		return enc.Bytes()
	}
	for i, r := range rows {
		dst = append(dst, `{"seq":`...)
		dst = strconv.AppendInt(dst, firstSeq+int64(i), 10)
		dst = append(dst, ',')
		dst = streamio.AppendResultFields(dst, r.W.Range, r.W.Slide, r.Start, r.End, r.Key, r.Value)
		dst = append(dst, '}', '\n')
	}
	return dst
}

func sortByTime(events []stream.Event) {
	slices.SortStableFunc(events, func(a, b stream.Event) int { return cmp.Compare(a.Time, b.Time) })
}

// engineStats is pass (c): the single-threaded baseline.
type engineStats struct {
	events, updates, rows int64
	process               time.Duration
	snapshot              time.Duration
	snapshotBytes         int
}

// enginePass pushes a fixed number of cycles through one engine.Runner
// on one thread, with the per-batch watermark the server would send.
// The event count is fixed, so updates and rows repeat exactly.
func enginePass(s spec, in *inputs, cycles int, tr *tracer) (es engineStats, err error) {
	tr.setPass(passEngine)
	in.rewind()
	mp, err := multiquery.Optimize(s.multiqueries(), s.fn, optimizerOptions())
	if err != nil {
		return es, err
	}
	var sink stream.CountingSink
	r, err := engine.New(mp.Combined, &sink)
	if err != nil {
		return es, err
	}
	ordered := make([]stream.Event, 0, batchEvents)
	for b := 0; b < cycles*in.batches(); b++ {
		ordered = append(ordered[:0], in.nextBatch()...)
		maxTime := int64(0)
		for i := range ordered {
			maxTime = max(maxTime, ordered[i].Time)
		}
		if s.shuffleTicks > 0 {
			// The engine takes in-order input; the shuffle stays inside
			// the batch, so sorting it is what the reorder buffer yields.
			sortByTime(ordered)
		}
		tr.begin("engine.process", b)
		r.Process(ordered)
		r.Advance(maxTime - s.reorderBound)
		es.process += tr.end()
	}
	es.events = r.Events()
	es.updates = r.TotalUpdates()
	es.rows = sink.N
	tr.begin("engine.snapshot", 0)
	blob, err := r.Snapshot()
	es.snapshot = tr.end()
	es.snapshotBytes = len(blob)
	return es, err
}
