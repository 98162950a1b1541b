// Package parallel executes multi-window aggregation plans across
// several key-sharded engine instances. The paper's evaluation is
// deliberately single-core ("All results are based on single-core
// executions"), and so is internal/engine; this package is the natural
// production scale-out: window aggregates group by key, so the stream
// partitions cleanly by key hash, each shard runs the identical rewritten
// plan over its key subset, and the union of shard outputs equals the
// single-core output exactly. Sharding composes with every optimization
// in the library — each shard executes the same min-cost, factor-window
// plan.
//
// # One runner, two shard kinds
//
// Runner is the repository's one shard-execution tier. It owns what
// every sharded execution shares: the key partition (ShardOf) into a
// recycled scatter, the watermark broadcast, the barrier (started on
// every shard, then awaited in shard index order), the drain of each
// shard's buffered runs into the sink in shard index order with the
// egress peak, the snapshot envelope, the canonical export and Close.
// It drives its shards through the Shard interface and never asks which
// kind it drives:
//
//   - Resume builds goroutine shards from an engine.Carried (New from
//     nothing): one engine per shard on its own goroutine, fed through an
//     SPSC ring, a panic poisoning only that shard. SetOrderedDrain picks
//     their delivery: results held for the barrier drain, or flushed by
//     the shards as they fill.
//   - internal/router builds remote shards: one frame session per shard
//     on a worker process, with placement, the replay journal and
//     failover behind the same interface, handed to Drive. They always
//     hold results for the barrier drain.
//
// State crosses between runners as an engine.Carried — ExportCanonical
// and DecodeSnapshot produce one, Resume and router.New consume it — and
// this package never asks whether a shard's state is a snapshot or an
// export: engine.Resume tells.
package parallel

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
)

// Shard is one key partition a Runner drives: an engine behind some
// transport. The Runner calls every method from its driving goroutine.
type Shard interface {
	// Send hands the shard its part of a batch, in time order. The
	// events are borrowed: the shard calls part.Done once it no longer
	// reads them.
	Send(part Part)
	// Watermark delivers a watermark: no later event has Time < t.
	Watermark(t int64)
	// StartBarrier asks the shard to finish everything sent before it;
	// AwaitBarrier waits for that and returns the results the shard has
	// buffered since the last drain, which the Runner drains and resets.
	StartBarrier()
	AwaitBarrier() *stream.RunBuffer
	// EngineSnapshot reads the shard engine's snapshot, Export its
	// canonical export in whatever form the shard holds it; the Runner
	// barriers first, so the shard is quiescent.
	EngineSnapshot() ([]byte, error)
	Export(horizon int64) (engine.ShardState, error)
	// Updates is the engine's state-update counter as of the last
	// barrier (or close).
	Updates() int64
	// StartClose asks the shard to flush its engine (open instances
	// fire) and end; AwaitClose waits for that and returns the final
	// results.
	StartClose()
	AwaitClose() *stream.RunBuffer
	// Err reports the shard's first unrecoverable failure.
	Err() error
}

// Part is one shard's share of a Process batch, borrowed from the
// Runner's recycled scatter.
type Part struct {
	Events []stream.Event
	sc     *scatter
}

// Done hands the part back; its events must not be read afterwards.
func (p Part) Done() {
	if p.sc != nil {
		p.sc.release()
	}
}

// lockedSink serializes delivery onto the user's sink: the Runner's
// drain and, for goroutine shards flushing on their own, the shards. One
// lock acquisition per drained buffer or passed-through run. Run-capable
// sinks receive runs as they are; others get them materialised as rows
// by stream.EmitRun's fallback.
type lockedSink struct {
	mu   sync.Mutex
	sink stream.Sink
	// ordered is the goroutine shards' delivery policy (SetOrderedDrain).
	ordered bool
}

// drain delivers and resets one buffer of runs under the lock.
func (s *lockedSink) drain(buf *stream.RunBuffer) {
	if buf.Rows() == 0 {
		return
	}
	s.mu.Lock()
	// Unlock via defer: a panicking user sink poisons the runner, and the
	// mutex must not stay held or every shard wedges behind it.
	defer s.mu.Unlock()
	buf.Drain(s.sink)
}

func (s *lockedSink) emitRun(r stream.Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stream.EmitRun(s.sink, r)
}

// shardSink buffers one goroutine shard's emissions as runs. Unordered,
// it flushes them to the shared sink in batches, so high-cardinality
// outputs do not serialize the shards on a per-run lock. Ordered
// (SetOrderedDrain), it stops flushing on its own below the spill
// high-water mark and the Runner drains the buffers in shard index order
// at each Barrier.
type shardSink struct {
	out *lockedSink
	buf stream.RunBuffer
}

const shardSinkBatch = 1024

// orderedSpill caps a shard's buffered results, in rows, in ordered
// mode. A shard whose buffer crosses it flushes eagerly — memory stays
// bounded, at the cost of deterministic ordering for that barrier
// interval. Drivers that barrier per bounded ingest chunk (the server)
// stay far below it.
const orderedSpill = 1 << 15

func (s *shardSink) Emit(r stream.Result) {
	s.buf.Emit(r)
	if s.buf.Rows() >= s.flushAt() {
		s.flush()
	}
}

// EmitRun implements stream.RunSink: the engine's fire path lands here.
// Small runs coalesce into the shard buffer; a run already at flush size
// skips the copy and goes straight through the serialized sink (after
// flushing the buffer, to keep per-key order) — the run is only
// borrowed for the call either way. Ordered mode always copies: a
// passthrough would interleave with other shards at whatever moment
// this shard's engine fired.
func (s *shardSink) EmitRun(r stream.Run) {
	if !s.out.ordered && r.Len() >= shardSinkBatch/2 {
		s.flush()
		s.out.emitRun(r)
		return
	}
	s.buf.Append(r)
	if s.buf.Rows() >= s.flushAt() {
		s.flush()
	}
}

func (s *shardSink) flushAt() int {
	if s.out.ordered {
		return orderedSpill
	}
	return shardSinkBatch
}

func (s *shardSink) flush() { s.out.drain(&s.buf) }

// scatter is one recycled staging area for Process's key partitioning:
// n per-shard event slices that keep their capacity across uses. The
// shards hand a scatter back to the Runner's free list once every shard
// holding a part has called Done (pending counts the outstanding parts),
// double-buffering the steady state: one scatter fills while the
// previous drains.
type scatter struct {
	owner   *Runner
	parts   [][]stream.Event
	pending atomic.Int32
}

// release returns the scatter to the free list once the last outstanding
// part is consumed. The free channel holds at most scatterDepth; extras
// (allocated under burst) are dropped for the GC.
func (sc *scatter) release() {
	if sc.pending.Add(-1) != 0 {
		return
	}
	for i := range sc.parts {
		sc.parts[i] = sc.parts[i][:0]
	}
	select {
	case sc.owner.freeScatter <- sc:
	default:
	}
}

// scatterDepth is the steady-state scatter pool size: one filling plus
// the few in flight that the shard rings let the driver run ahead by.
const scatterDepth = 4

// shardMsg is one unit of work for a goroutine shard: an event part, a
// watermark advance (advanceSet), or a barrier asking the shard to
// acknowledge that everything sent before it has been processed.
type shardMsg struct {
	part       Part
	advance    int64
	advanceSet bool
	barrier    bool
}

// ringSize is the per-shard SPSC ring capacity (messages). It bounds
// how far the driver can run ahead of a shard before Process blocks —
// the same backpressure the per-shard channels used to provide.
const ringSize = 8

// spscRing is a bounded single-producer single-consumer message queue:
// the Runner's driving goroutine pushes, the shard's persistent worker
// pops. Slots hand over through atomic head/tail indices — no mutex, no
// per-message channel operation in the common case. An empty consumer
// and a full producer park on one-token wake channels; the park/recheck
// protocol (park flag store, then recheck the index) pairs with the
// peer's index store + flag load so a wakeup can never be missed, and a
// stale token at worst causes one spurious recheck.
type spscRing struct {
	buf  []shardMsg
	mask uint64

	head   atomic.Uint64 // next slot to pop; advanced by the consumer
	tail   atomic.Uint64 // next slot to push; advanced by the producer
	closed atomic.Bool

	consParked atomic.Bool
	prodParked atomic.Bool
	pushed     chan struct{} // wakes a parked consumer
	popped     chan struct{} // wakes a parked producer
}

func newSPSCRing() *spscRing {
	return &spscRing{
		buf:    make([]shardMsg, ringSize),
		mask:   ringSize - 1,
		pushed: make(chan struct{}, 1),
		popped: make(chan struct{}, 1),
	}
}

// push enqueues one message, blocking while the ring is full. Producer
// side only (the Runner's driving goroutine).
func (q *spscRing) push(m shardMsg) {
	for {
		t := q.tail.Load()
		if t-q.head.Load() < uint64(len(q.buf)) {
			q.buf[t&q.mask] = m
			q.tail.Store(t + 1)
			if q.consParked.Load() {
				select {
				case q.pushed <- struct{}{}:
				default:
				}
			}
			return
		}
		q.prodParked.Store(true)
		if q.tail.Load()-q.head.Load() < uint64(len(q.buf)) {
			q.prodParked.Store(false)
			continue
		}
		<-q.popped
		q.prodParked.Store(false)
	}
}

// pop dequeues the next message, parking while the ring is empty. It
// returns ok=false once the ring is closed and drained. Consumer side
// only (the shard worker).
func (q *spscRing) pop() (shardMsg, bool) {
	for {
		h := q.head.Load()
		if q.tail.Load() != h {
			m := q.buf[h&q.mask]
			q.buf[h&q.mask] = shardMsg{} // drop the slot's references
			q.head.Store(h + 1)
			if q.prodParked.Load() {
				select {
				case q.popped <- struct{}{}:
				default:
				}
			}
			return m, true
		}
		if q.closed.Load() {
			// closed is stored after the final push; seeing it guarantees
			// the final tail store is visible, so one recheck suffices.
			if q.tail.Load() != h {
				continue
			}
			return shardMsg{}, false
		}
		q.consParked.Store(true)
		if q.tail.Load() != h || q.closed.Load() {
			q.consParked.Store(false)
			continue
		}
		<-q.pushed
		q.consParked.Store(false)
	}
}

// close marks the ring closed (producer side); the consumer drains what
// remains and then sees ok=false.
func (q *spscRing) close() {
	q.closed.Store(true)
	select {
	case q.pushed <- struct{}{}:
	default:
	}
}

// shard is the goroutine Shard: one engine instance fed by its own
// persistent worker goroutine, parked on its SPSC ring while idle.
type shard struct {
	runner  *engine.Runner
	sink    *shardSink
	in      *spscRing
	acked   chan struct{} // one token per barrier, for the driving goroutine
	done    chan struct{}
	failure atomic.Pointer[error]
}

// loop drives one shard. The engine enforces its input contract with
// panics; a restored-from-hostile-bytes or otherwise corrupt state must
// not take the whole process down, so a panicking shard is poisoned
// instead: the failure is recorded and the shard keeps draining its ring
// (acking barriers, handing parts back) so the Runner never blocks.
func (sh *shard) loop() {
	defer close(sh.done)
	if sh.consume() {
		sh.finish()
		return
	}
	for {
		msg, ok := sh.in.pop()
		if !ok {
			return
		}
		sh.settle(msg)
	}
}

// settle completes what the Runner waits on for msg: its barrier token
// and its part.
func (sh *shard) settle(msg shardMsg) {
	if msg.barrier {
		sh.acked <- struct{}{}
	}
	msg.part.Done()
}

// consume processes messages until the input ring closes (true) or a
// panic poisons the shard (false). The message being processed when a
// panic hits is settled by the recovery path, after the failure is
// recorded, so the Runner is never left waiting on a token or a part
// the drain loop will not see again, and sees the failure once it has
// them.
func (sh *shard) consume() (ok bool) {
	var cur shardMsg
	defer func() {
		if p := recover(); p != nil {
			sh.fail(fmt.Errorf("parallel: shard failed: %v", p))
			sh.settle(cur)
		}
	}()
	for {
		msg, ok := sh.in.pop()
		if !ok {
			return true
		}
		cur = msg
		switch {
		case msg.barrier:
			if !sh.sink.out.ordered {
				sh.sink.flush()
			}
		case msg.advanceSet:
			sh.runner.Advance(msg.advance)
		default:
			sh.runner.Process(msg.part.Events)
		}
		cur = shardMsg{}
		sh.settle(msg)
	}
}

// finish flushes the shard engine once its ring has closed.
func (sh *shard) finish() {
	defer func() {
		if p := recover(); p != nil {
			sh.fail(fmt.Errorf("parallel: shard failed in flush: %v", p))
		}
	}()
	sh.runner.Close()
	if !sh.sink.out.ordered {
		sh.sink.flush()
	}
}

// fail records the shard's first failure; only its own goroutine calls it.
func (sh *shard) fail(err error) {
	if sh.failure.Load() == nil {
		sh.failure.Store(&err)
	}
}

func (sh *shard) Send(part Part) { sh.in.push(shardMsg{part: part}) }

func (sh *shard) Watermark(t int64) { sh.in.push(shardMsg{advance: t, advanceSet: true}) }

func (sh *shard) StartBarrier() { sh.in.push(shardMsg{barrier: true}) }

// AwaitBarrier returns the shard's buffer: empty unless ordered, since
// an unordered shard flushes before it acks.
func (sh *shard) AwaitBarrier() *stream.RunBuffer {
	<-sh.acked
	return &sh.sink.buf
}

func (sh *shard) EngineSnapshot() ([]byte, error) { return sh.runner.Snapshot() }

func (sh *shard) Export(horizon int64) (engine.ShardState, error) {
	ex, err := sh.runner.ExportCanonical(horizon)
	return engine.Exported(ex), err
}

func (sh *shard) Updates() int64 { return sh.runner.TotalUpdates() }

func (sh *shard) StartClose() { sh.in.close() }

func (sh *shard) AwaitClose() *stream.RunBuffer {
	<-sh.done
	return &sh.sink.buf
}

func (sh *shard) Err() error {
	if p := sh.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// Runner fans events out to key-sharded engines. Feed it with Process
// (events in non-decreasing time order, as for the engine) and finish
// with Close; every method except EgressPeak must be called from the
// single goroutine driving the Runner. Each Barrier and the final Close
// deliver the shards' buffered results in shard index order. Goroutine
// shards may also deliver on their own, concurrently and interleaved
// across shards, unless SetOrderedDrain is on.
type Runner struct {
	shards []Shard
	bufs   []*stream.RunBuffer // the buffers the last barrier or close returned
	out    *lockedSink
	closed bool
	events int64

	// freeScatter recycles Process's staging buffers (see scatter).
	freeScatter chan *scatter

	// egressPeak is the high-water mark of any single shard's buffered
	// result rows, sampled at drain points (atomic: read by /stats
	// without the driving goroutine's cooperation).
	egressPeak atomic.Int64

	// failure is the first sink panic the drain recovered.
	failure error
}

// Drive returns a Runner over shards, which ShardOf indexes: shard i
// receives the keys ShardOf maps to i of len(shards). events seeds the
// ingest counter (a restored checkpoint's). sink receives every drained
// result, from the driving goroutine.
func Drive(shards []Shard, sink stream.Sink, events int64) *Runner {
	return newRunner(shards, &lockedSink{sink: sink}, events)
}

func newRunner(shards []Shard, out *lockedSink, events int64) *Runner {
	return &Runner{
		shards:      shards,
		bufs:        make([]*stream.RunBuffer, len(shards)),
		out:         out,
		events:      events,
		freeScatter: make(chan *scatter, scatterDepth),
	}
}

// New compiles the plan onto n fresh goroutine shards (n ≤ 0 selects
// GOMAXPROCS): Resume with nothing carried.
func New(p *plan.Plan, sink stream.Sink, n int) (*Runner, error) {
	r, _, err := Resume(p, sink, n, engine.Carried{}, 0)
	return r, err
}

// Resume builds goroutine shards for p from carried state: one shard per
// carried shard (the key→shard hash is a pure function of the count, so
// state keeps its count), or n fresh ones when nothing is carried (n ≤ 0
// selects GOMAXPROCS). Each shard engine resumes through engine.Resume,
// and windows the state does not cover start fresh with their
// exposed-result floor at freshFloor. Every shard runs an identical copy
// of the plan; sink must be safe for the wrapper's serialized access only
// (the Runner locks around it). It returns the number of window
// instances handed over across all shards.
func Resume(p *plan.Plan, sink stream.Sink, n int, state engine.Carried, freshFloor int64) (*Runner, int, error) {
	if sink == nil {
		return nil, 0, fmt.Errorf("parallel: nil sink")
	}
	carried := state.Shards
	if len(carried) == 0 {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		carried = make([]engine.ShardState, n)
	}
	ls := &lockedSink{sink: sink}
	local := make([]*shard, len(carried))
	shards := make([]Shard, len(carried))
	migrated := 0
	for i, st := range carried {
		ss := &shardSink{out: ls}
		er, m, err := engine.Resume(p, ss, st, freshFloor)
		if err != nil {
			return nil, 0, err
		}
		migrated += m
		local[i] = &shard{
			runner: er,
			sink:   ss,
			in:     newSPSCRing(),
			acked:  make(chan struct{}, 1),
			done:   make(chan struct{}),
		}
		shards[i] = local[i]
	}
	for _, sh := range local {
		go sh.loop()
	}
	return newRunner(shards, ls, state.Events), migrated, nil
}

// fail records the Runner's first failure of its own (a sink panic).
func (r *Runner) fail(err error) {
	if r.failure == nil {
		r.failure = err
	}
}

// Err returns the first failure: a sink panic recovered by the drain,
// else the lowest-indexed shard's — a corrupt restored state or an
// input-contract violation surfaces here instead of as a process crash.
// A failed shard stops executing and discards its input, so on a
// non-nil Err the Runner's output is incomplete and the caller should
// tear it down. Call Err after a Barrier (or Close) to observe failures
// from everything already sent.
func (r *Runner) Err() error {
	if r.failure != nil {
		return r.failure
	}
	for _, sh := range r.shards {
		if err := sh.Err(); err != nil {
			return err
		}
	}
	return nil
}

// SetOrderedDrain makes the cross-shard result order deterministic:
// goroutine shards stop flushing their buffers to the sink on their own
// (below the orderedSpill high-water mark), so each Barrier — and the
// final Close — delivers everything in shard index order on the driving
// goroutine. Given a fixed ingest batch cadence the sink then sees one
// reproducible result sequence, which is what lets the server promise
// byte-identical result streams regardless of which wire codec carried
// the events, and stable ring sequence numbers for stream resume.
// Results become visible only at barriers, so callers must barrier at
// their ingest cadence (the server barriers every chunk). Remote shards
// hold their results for the barrier either way and ignore it. Call it
// right after construction, before the first Process; flipping it
// mid-stream races with the shard goroutines.
func (r *Runner) SetOrderedDrain(on bool) { r.out.ordered = on }

// drain delivers the buffers the last barrier or close collected, in
// shard index order, and records the largest as the egress peak. A sink
// that panics poisons the Runner (Err) instead of unwinding through the
// caller; the undelivered results are dropped.
func (r *Runner) drain() {
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("parallel: sink failed: %v", p))
			for _, buf := range r.bufs {
				buf.Reset()
			}
		}
	}()
	peak := 0
	for _, buf := range r.bufs {
		peak = max(peak, buf.Rows())
	}
	if p := int64(peak); p > r.egressPeak.Load() {
		r.egressPeak.Store(p)
	}
	for _, buf := range r.bufs {
		r.out.drain(buf)
	}
}

// EgressPeak reports the high-water mark of per-shard buffered result
// rows observed at drain points — the server's egress-scratch
// telemetry. In ordered mode it is bounded by OrderedSpill for
// goroutine shards; unordered ones flush on their own and leave the
// drain nothing to observe.
func (r *Runner) EgressPeak() int64 { return r.egressPeak.Load() }

// OrderedSpill exposes the per-shard buffered-result bound so budget
// checks can assert against the same constant the sinks enforce.
const OrderedSpill = orderedSpill

// ShardOf maps a key to its shard in [0, n) via a Fibonacci hash,
// spreading clustered key spaces (0, 1, 2, ...) evenly. Every Runner
// partitions keys with it, whatever its shards are, so two Runners with
// the same shard count place every key — and its state — identically.
func ShardOf(key uint64, n int) int {
	h := key * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(n))
}

// Process partitions one in-order batch by key hash and hands each shard
// its subsequence (which therefore stays in time order). The input slice
// is not retained: events are staged into a recycled scatter (per-shard
// buffers that keep their capacity and return through a free list once
// every shard is done with its part), so steady-state fan-out allocates
// nothing. The single-shard path stages through the same buffers instead
// of copying the batch afresh per call.
func (r *Runner) Process(events []stream.Event) {
	if r.closed {
		panic("parallel: Process after Close")
	}
	r.events += int64(len(events))
	if len(events) == 0 {
		return
	}
	sc := r.getScatter()
	n := len(r.shards)
	if n == 1 {
		sc.parts[0] = append(sc.parts[0], events...)
	} else {
		for i := range events {
			s := ShardOf(events[i].Key, n)
			sc.parts[s] = append(sc.parts[s], events[i])
		}
	}
	live := int32(0)
	for _, part := range sc.parts {
		if len(part) > 0 {
			live++
		}
	}
	// One reference per outstanding part plus one held by this loop, so
	// the scatter cannot be reset (by a shard finishing early) while the
	// send loop still reads it.
	sc.pending.Store(live + 1)
	for i, part := range sc.parts {
		if len(part) > 0 {
			r.shards[i].Send(Part{Events: part, sc: sc})
		}
	}
	sc.release()
}

// getScatter pops a recycled scatter or builds a fresh one (burst
// beyond scatterDepth in-flight batches allocates transiently).
func (r *Runner) getScatter() *scatter {
	select {
	case sc := <-r.freeScatter:
		return sc
	default:
		return &scatter{owner: r, parts: make([][]stream.Event, len(r.shards))}
	}
}

// Advance broadcasts a watermark to every shard: no subsequent event
// will have Time < t, so instances with end <= t fire everywhere. This
// matters precisely because the shards are key-partitioned — a shard
// whose keys go quiet never sees the later events that would complete
// its open windows. Like Process it is asynchronous; Barrier to sync.
func (r *Runner) Advance(t int64) {
	if r.closed {
		panic("parallel: Advance after Close")
	}
	for _, sh := range r.shards {
		sh.Watermark(t)
	}
}

// Barrier blocks until every shard has processed all batches handed to
// Process before the call, then delivers their buffered results in shard
// index order. The barrier starts on every shard before any is awaited,
// so the shards finish concurrently. After it returns the shards are
// quiescent, so reading aggregate counters such as TotalUpdates — or
// taking a Snapshot — is race-free until the next Process call.
// Long-running callers (servers) use it to make results visible
// promptly instead of waiting for the per-shard batch buffers to fill.
func (r *Runner) Barrier() {
	if r.closed {
		return
	}
	for _, sh := range r.shards {
		sh.StartBarrier()
	}
	for i, sh := range r.shards {
		r.bufs[i] = sh.AwaitBarrier()
	}
	r.drain()
}

// Close flushes every shard and delivers the final results.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, sh := range r.shards {
		sh.StartClose()
	}
	for i, sh := range r.shards {
		r.bufs[i] = sh.AwaitClose()
	}
	r.drain()
}

// Events returns the number of raw events accepted.
func (r *Runner) Events() int64 { return r.events }

// Shards returns the shard count.
func (r *Runner) Shards() int { return len(r.shards) }

// TotalUpdates sums per-instance state updates across all shards (the
// engine's cost-model work counter). Valid after a Barrier or Close.
func (r *Runner) TotalUpdates() int64 {
	var t int64
	for _, sh := range r.shards {
		t += sh.Updates()
	}
	return t
}

// snapshot is the serialized form of a Runner, whatever its shards: one
// engine snapshot per shard. The shard count is part of the state — the
// key→shard hash is a pure function of the count, so restoring onto the
// same count keeps every key's partial aggregates on the shard that
// owns them. State versioning is inherited from the embedded engine
// blobs (see internal/engine/checkpoint.go).
type snapshot struct {
	Shards int
	Events int64
	State  [][]byte
}

// EncodeSnapshot wraps per-shard engine snapshots and the ingest
// counter into the sharded snapshot envelope.
func EncodeSnapshot(states [][]byte, events int64) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot{Shards: len(states), Events: events, State: states}); err != nil {
		return nil, fmt.Errorf("parallel: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot is EncodeSnapshot's inverse: the per-shard engine
// snapshots as carried state (their count is the shard count) with the
// ingest counter. A per-shard blob that is not an engine snapshot fails
// with engine.ErrSnapshotVersion.
func DecodeSnapshot(data []byte) (engine.Carried, error) {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return engine.Carried{}, fmt.Errorf("parallel: decoding snapshot: %w", err)
	}
	if snap.Shards <= 0 || len(snap.State) != snap.Shards {
		return engine.Carried{}, fmt.Errorf("parallel: snapshot has %d shards, %d states",
			snap.Shards, len(snap.State))
	}
	return engine.Snapshots(snap.State, snap.Events)
}

// Snapshot quiesces the shards (Barrier) and serializes their engine
// state. Like engine.Snapshot it is consistent at batch boundaries: take
// it between Process calls, from the goroutine driving the Runner. The
// envelope is the same whatever the shards are, so a checkpoint taken
// on one kind restores onto the other.
func (r *Runner) Snapshot() ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("parallel: Snapshot after Close")
	}
	r.Barrier()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("parallel: Snapshot of failed runner: %w", err)
	}
	states := make([][]byte, len(r.shards))
	for i, sh := range r.shards {
		b, err := sh.EngineSnapshot()
		if err != nil {
			return nil, err
		}
		states[i] = b
	}
	return EncodeSnapshot(states, r.events)
}

// ExportCanonical quiesces the shards and carries out each shard
// engine's canonical migration state (see engine.ExportCanonical): the
// exact per-window open-instance state a different plan can resume from,
// every shard cut at the one horizon. Because key→shard placement is a
// pure function of the key and the shard count, migration is shard-local
// — shard i's state resumes shard i of a Runner with the same count. Call
// it from the goroutine driving the Runner, between Process calls; the
// Runner remains usable.
func (r *Runner) ExportCanonical(horizon int64) (engine.Carried, error) {
	if r.closed {
		return engine.Carried{}, fmt.Errorf("parallel: ExportCanonical after Close")
	}
	r.Barrier()
	if err := r.Err(); err != nil {
		return engine.Carried{}, fmt.Errorf("parallel: ExportCanonical of failed runner: %w", err)
	}
	out := engine.Carried{Events: r.events, Shards: make([]engine.ShardState, len(r.shards))}
	for i, sh := range r.shards {
		st, err := sh.Export(horizon)
		if err != nil {
			return engine.Carried{}, err
		}
		out.Shards[i] = st
	}
	return out, nil
}

// Run executes the plan over all events on n shards and flushes.
func Run(p *plan.Plan, events []stream.Event, sink stream.Sink, n int) (*Runner, error) {
	r, err := New(p, sink, n)
	if err != nil {
		return nil, err
	}
	r.Process(events)
	r.Close()
	return r, nil
}
