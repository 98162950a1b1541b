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

// lockedSink serializes concurrent delivery from the shards onto the
// user's sink: one lock acquisition per drained buffer or passed-through
// run. Run-capable sinks receive runs as they are; others get them
// materialised as rows by stream.EmitRun's fallback.
type lockedSink struct {
	mu   sync.Mutex
	sink stream.Sink
}

// drain delivers and resets one shard's buffered runs under the lock.
func (s *lockedSink) drain(buf *stream.RunBuffer) {
	if buf.Rows() == 0 {
		return
	}
	s.mu.Lock()
	// Unlock via defer: a panicking user sink poisons its shard, and the
	// mutex must not stay held or every other shard wedges behind it.
	defer s.mu.Unlock()
	buf.Drain(s.sink)
}

func (s *lockedSink) emitRun(r stream.Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stream.EmitRun(s.sink, r)
}

// shardSink buffers one shard's emissions as runs and flushes them to
// the shared sink in batches, so high-cardinality outputs do not
// serialize the shards on a per-run lock. In ordered mode
// (SetOrderedDrain) the shard stops flushing on its own below the spill
// high-water mark; the driving goroutine drains the buffers in shard
// index order at each Barrier.
type shardSink struct {
	out     *lockedSink
	buf     stream.RunBuffer
	ordered bool
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
	if !s.ordered && r.Len() >= shardSinkBatch/2 {
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
	if s.ordered {
		return orderedSpill
	}
	return shardSinkBatch
}

func (s *shardSink) flush() { s.out.drain(&s.buf) }

// scatter is one recycled staging area for Process's key partitioning:
// n per-shard event slices that keep their capacity across uses. The
// shards hand a scatter back to the Runner's free list once every shard
// holding a part has consumed it (pending counts the outstanding
// parts), double-buffering the steady state: one scatter fills while
// the previous drains.
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

// shardMsg is one unit of work for a shard loop: an event batch, a
// watermark advance (advanceSet), or a barrier request (ack non-nil)
// asking the shard to flush its sink and acknowledge that everything
// sent before it has been processed.
type shardMsg struct {
	events     []stream.Event
	sc         *scatter // owner of events, released after processing
	advance    int64
	advanceSet bool
	ack        *barrierAck
}

// barrierAck is the Runner's reusable barrier acknowledgement: one
// countdown shared by all shards and one buffered completion channel,
// re-armed per Barrier call instead of allocating len(shards) fresh
// channels every time (servers barrier once per ingest poll). Barriers
// serialize on the driving goroutine, which always drains done before
// re-arming, so the last shard's send never blocks.
type barrierAck struct {
	pending atomic.Int32
	done    chan struct{}
}

// complete records one shard's acknowledgement; the last shard signals
// the waiting driver.
func (a *barrierAck) complete() {
	if a.pending.Add(-1) == 0 {
		a.done <- struct{}{}
	}
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

// shard is one engine instance fed by its own persistent worker
// goroutine, parked on its SPSC ring while idle.
type shard struct {
	owner  *Runner
	runner *engine.Runner
	sink   *shardSink
	in     *spscRing
	done   chan struct{}
}

// Runner fans events out to key-sharded engines. Feed it with Process
// (events in non-decreasing time order, as for the engine) and finish
// with Close; Process, Advance, Barrier, Snapshot and Close must all be
// called from the single goroutine driving the Runner (the shard rings
// are single-producer). Results arrive on the sink concurrently; their
// order is deterministic per key but interleaved across shards — unless
// SetOrderedDrain is on, in which case Barrier and Close deliver the
// shard buffers in shard index order.
type Runner struct {
	shards  []*shard
	closed  bool
	ordered bool
	events  int64

	// freeScatter recycles Process's staging buffers (see scatter).
	freeScatter chan *scatter

	// ack is the reusable barrier acknowledgement (see barrierAck).
	ack barrierAck

	// egressPeak is the high-water mark of any single shard's buffered
	// result rows, sampled at ordered-drain points (atomic: read by
	// /stats without the driving goroutine's cooperation). Bounded by
	// orderedSpill, which is the egress-scratch budget /stats reports
	// against.
	egressPeak atomic.Int64

	mu      sync.Mutex
	failure error
}

// New compiles the plan onto n key shards (n ≤ 0 selects GOMAXPROCS).
// Every shard runs an identical copy of the plan; sink must be safe for
// the wrapper's serialized access only (the Runner locks around it).
func New(p *plan.Plan, sink stream.Sink, n int) (*Runner, error) {
	return build(p, sink, n, nil)
}

// build compiles or restores the shard engines and starts their loops.
// When snaps is non-nil it must hold one engine snapshot per shard.
func build(p *plan.Plan, sink stream.Sink, n int, snaps [][]byte) (*Runner, error) {
	if sink == nil {
		return nil, fmt.Errorf("parallel: nil sink")
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ls := &lockedSink{sink: sink}
	r := &Runner{
		freeScatter: make(chan *scatter, scatterDepth),
		ack:         barrierAck{done: make(chan struct{}, 1)},
	}
	for i := 0; i < n; i++ {
		ss := &shardSink{out: ls}
		var er *engine.Runner
		var err error
		if snaps == nil {
			er, err = engine.New(p, ss)
		} else {
			er, err = engine.Restore(p, ss, snaps[i])
		}
		if err != nil {
			return nil, err
		}
		sh := &shard{
			owner:  r,
			runner: er,
			sink:   ss,
			in:     newSPSCRing(),
			done:   make(chan struct{}),
		}
		r.shards = append(r.shards, sh)
	}
	for _, sh := range r.shards {
		go sh.loop()
	}
	return r, nil
}

// loop drives one shard. The engine enforces its input contract with
// panics; a restored-from-hostile-bytes or otherwise corrupt state must
// not take the whole process down, so a panicking shard is poisoned
// instead: the failure is recorded on the Runner and the shard keeps
// draining its ring (acking barriers) so the driver never blocks.
func (sh *shard) loop() {
	defer close(sh.done)
	if err := sh.consume(); err != nil {
		sh.owner.fail(err)
		for {
			msg, ok := sh.in.pop()
			if !ok {
				return
			}
			if msg.ack != nil {
				msg.ack.complete()
			}
			if msg.sc != nil {
				msg.sc.release()
			}
		}
	}
	if err := sh.finish(); err != nil {
		sh.owner.fail(err)
	}
}

// consume processes messages until the input ring closes or a panic
// poisons the shard. The message being processed when a panic hits is
// settled by the recovery path — its barrier ack completes and its
// scatter part releases — so the driver is never left waiting on an ack
// (or a scatter) the drain loop will not see again.
func (sh *shard) consume() (err error) {
	var cur shardMsg
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("parallel: shard failed: %v", p)
			if cur.ack != nil {
				cur.ack.complete()
			}
			if cur.sc != nil {
				cur.sc.release()
			}
		}
	}()
	for {
		msg, ok := sh.in.pop()
		if !ok {
			return nil
		}
		cur = msg
		switch {
		case msg.ack != nil:
			if !sh.sink.ordered {
				sh.sink.flush()
			}
			cur.ack = nil
			msg.ack.complete()
		case msg.advanceSet:
			sh.runner.Advance(msg.advance)
		default:
			sh.runner.Process(msg.events)
			if msg.sc != nil {
				cur.sc = nil
				msg.sc.release()
			}
		}
		cur = shardMsg{}
	}
}

// finish flushes the shard engine once its ring has closed.
func (sh *shard) finish() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("parallel: shard failed in flush: %v", p)
		}
	}()
	sh.runner.Close()
	if !sh.sink.ordered {
		sh.sink.flush()
	}
	return nil
}

func (r *Runner) fail(err error) {
	r.mu.Lock()
	if r.failure == nil {
		r.failure = err
	}
	r.mu.Unlock()
}

// Err returns the first failure any shard hit — a corrupt restored
// state or an input-contract violation surfaces here as a recovered
// panic instead of a process crash. A failed shard stops executing and
// discards its input, so on a non-nil Err the Runner's output is
// incomplete and the caller should tear it down. Call Err after a
// Barrier (or Close) to observe failures from everything already sent.
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failure
}

// SetOrderedDrain makes the Runner's cross-shard result order
// deterministic: shards stop flushing their buffers to the sink on
// their own (below the orderedSpill high-water mark), and each Barrier
// — and the final Close — drains them in shard index order on the
// driving goroutine instead. Given a fixed ingest batch cadence the
// sink then sees one reproducible result sequence, which is what lets
// the server promise byte-identical result streams regardless of which
// wire codec carried the events, and stable ring sequence numbers for
// stream resume. Results become visible only at barriers, so callers
// must barrier at their ingest cadence (the server barriers every
// chunk). Call it right after construction, before the first Process;
// flipping it mid-stream races with the shard goroutines.
func (r *Runner) SetOrderedDrain(on bool) {
	r.ordered = on
	for _, sh := range r.shards {
		sh.sink.ordered = on
	}
}

// drainOrdered flushes every shard's buffered results in shard index
// order. Only called from the driving goroutine while the shard loops
// are quiescent (after a barrier ack or Close join), which is what
// makes touching the shard-owned buffers safe.
func (r *Runner) drainOrdered() {
	peak := 0
	for _, sh := range r.shards {
		if n := sh.sink.buf.Rows(); n > peak {
			peak = n
		}
		sh.sink.flush()
	}
	if p := int64(peak); p > r.egressPeak.Load() {
		r.egressPeak.Store(p)
	}
}

// EgressPeak reports the high-water mark of per-shard buffered result
// rows observed at ordered-drain points — the server's egress-scratch
// telemetry. In ordered mode it is bounded by OrderedSpill; unordered
// runners flush on their own schedule and report only what barriers
// happened to observe.
func (r *Runner) EgressPeak() int64 { return r.egressPeak.Load() }

// OrderedSpill exposes the per-shard buffered-result bound so budget
// checks can assert against the same constant the sinks enforce.
const OrderedSpill = orderedSpill

// ShardOf maps a key to its shard in [0, n) via a Fibonacci hash,
// spreading clustered key spaces (0, 1, 2, ...) evenly. Exported so
// remote shard placements (the distributed router) partition keys
// exactly as an in-process Runner with the same shard count would —
// the distributed/local byte-identity property depends on it.
func ShardOf(key uint64, n int) int {
	h := key * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(n))
}

// shardOf maps a key to its shard via the shared Fibonacci hash.
func (r *Runner) shardOf(key uint64) int {
	return ShardOf(key, len(r.shards))
}

// Process partitions one in-order batch by key hash and hands each shard
// its subsequence (which therefore stays in time order). The input slice
// is not retained: events are staged into a recycled scatter (per-shard
// buffers that keep their capacity and return through a free list once
// every shard has consumed its part), so steady-state fan-out allocates
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
			s := r.shardOf(events[i].Key)
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
			r.shards[i].in.push(shardMsg{events: part, sc: sc})
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
		sh.in.push(shardMsg{advance: t, advanceSet: true})
	}
}

// Barrier blocks until every shard has processed all batches handed to
// Process before the call and flushed its buffered results to the sink.
// After it returns the shard loops are quiescent (blocked on their input
// channels), so reading aggregate counters such as TotalUpdates — or
// taking a Snapshot — is race-free until the next Process call. Long-
// running callers (servers) use it to make results visible promptly
// instead of waiting for the per-shard batch buffers to fill.
func (r *Runner) Barrier() {
	if r.closed {
		return
	}
	// Re-arm the reusable ack: barriers serialize on the driving
	// goroutine and the previous call drained done, so no allocation and
	// no leftover token.
	r.ack.pending.Store(int32(len(r.shards)))
	for _, sh := range r.shards {
		sh.in.push(shardMsg{ack: &r.ack})
	}
	<-r.ack.done
	if r.ordered {
		r.drainOrdered()
	}
}

// Close flushes every shard and waits for all pending results.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, sh := range r.shards {
		sh.in.close()
	}
	for _, sh := range r.shards {
		<-sh.done
	}
	if r.ordered {
		r.drainOrdered()
	}
}

// Events returns the number of raw events accepted.
func (r *Runner) Events() int64 { return r.events }

// Shards returns the shard count.
func (r *Runner) Shards() int { return len(r.shards) }

// TotalUpdates sums per-instance state updates across all shards (the
// engine's cost-model work counter). Valid after Close.
func (r *Runner) TotalUpdates() int64 {
	var t int64
	for _, sh := range r.shards {
		t += sh.runner.TotalUpdates()
	}
	return t
}

// snapshot is the serialized form of a sharded runner — this one or the
// distributed router, which writes the same envelope: one engine
// snapshot per shard. The shard count is part of the state — the
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
// snapshots (their count is the shard count) and the ingest counter.
func DecodeSnapshot(data []byte) (states [][]byte, events int64, err error) {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, 0, fmt.Errorf("parallel: decoding snapshot: %w", err)
	}
	if snap.Shards <= 0 || len(snap.State) != snap.Shards {
		return nil, 0, fmt.Errorf("parallel: snapshot has %d shards, %d states",
			snap.Shards, len(snap.State))
	}
	return snap.State, snap.Events, nil
}

// Snapshot quiesces the shards (Barrier) and serializes their engine
// state. Like engine.Snapshot it is consistent at batch boundaries: take
// it between Process calls, from the goroutine driving the Runner.
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
		b, err := sh.runner.Snapshot()
		if err != nil {
			return nil, err
		}
		states[i] = b
	}
	return EncodeSnapshot(states, r.events)
}

// ExportCanonical quiesces the shards and exports each shard engine's
// canonical migration state (see engine.ExportCanonical): the exact
// per-window open-instance state a different plan can resume from.
// Because key→shard placement is a pure function of the key and the
// shard count, migration is shard-local — exports[i] imports into shard
// i of a Runner with the same count. Call it from the goroutine driving
// the Runner, between Process calls; the Runner remains usable.
func (r *Runner) ExportCanonical(horizon int64) ([]*engine.Export, error) {
	if r.closed {
		return nil, fmt.Errorf("parallel: ExportCanonical after Close")
	}
	r.Barrier()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("parallel: ExportCanonical of failed runner: %w", err)
	}
	out := make([]*engine.Export, len(r.shards))
	for i, sh := range r.shards {
		ex, err := sh.runner.ExportCanonical(horizon)
		if err != nil {
			return nil, err
		}
		out[i] = ex
	}
	return out, nil
}

// Migrate builds a Runner for p resuming the canonical state a previous
// plan's Runner exported: open window instances of every window that
// survives into p are handed over exactly (no skipped instances), and
// windows new to p start fresh with their exposed-result floor at
// freshFloor. With nil exports it builds a fresh n-shard Runner whose
// every window has that floor. The shard count is taken from the
// exports when present (key placement); it returns the number of window
// instances handed over across all shards.
func Migrate(p *plan.Plan, sink stream.Sink, n int, exports []*engine.Export, freshFloor int64) (*Runner, int, error) {
	if exports != nil {
		if err := CheckExports(exports); err != nil {
			return nil, 0, err
		}
		n = len(exports)
	}
	r, err := build(p, sink, n, nil)
	if err != nil {
		return nil, 0, err
	}
	// The shard loops are already parked on their rings, but no message
	// has been pushed yet: mutations here happen-before the first push.
	migrated := 0
	for i, sh := range r.shards {
		var ex *engine.Export
		if exports != nil {
			ex = exports[i]
		}
		m, err := sh.runner.ImportCanonical(ex, freshFloor)
		if err != nil {
			r.Close()
			return nil, 0, err
		}
		migrated += m
		if ex != nil {
			r.events += ex.Events
		}
	}
	return r, migrated, nil
}

// CheckExports validates a per-shard export set as one handover: one
// export per shard, all cut at the same horizon — shard exports from
// different stream positions would resume an inconsistent cut.
func CheckExports(exports []*engine.Export) error {
	if len(exports) == 0 {
		return fmt.Errorf("parallel: empty export set")
	}
	for i, ex := range exports[1:] {
		if ex.Horizon != exports[0].Horizon {
			return fmt.Errorf("parallel: shard %d exported at horizon %d, shard 0 at %d",
				i+1, ex.Horizon, exports[0].Horizon)
		}
	}
	return nil
}

// Restore rebuilds a Runner for p from a Snapshot taken on an identical
// plan. The shard count is taken from the snapshot (it determines key
// placement); each shard engine verifies the plan fingerprint.
func Restore(p *plan.Plan, sink stream.Sink, data []byte) (*Runner, error) {
	states, events, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	r, err := build(p, sink, len(states), states)
	if err != nil {
		return nil, err
	}
	r.events = events
	return r, nil
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
