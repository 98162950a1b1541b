// Package router promotes the engine's shard boundary to a network
// boundary: the same key-sharded execution parallel runs across cores,
// run across worker processes speaking the binary frame protocol (see
// internal/shardworker for the other side).
//
// # One runner, remote shards
//
// The router is not a second runner. Its Runner embeds the one
// parallel.Runner — key partition, watermark broadcast, barrier, ordered
// drain, carried state and Close exist there only
// — and supplies that runner's shards: one frame session per shard on a
// worker (parallel.Shard). What is genuinely remote stays here:
// placement, the replay journal and its snapshot compaction, failover,
// shedding, and the topology operations (AddWorker, Rebalance, Drain,
// Topology).
//
// # Determinism contract
//
// The result sequence the sink sees is a pure function of the ingested
// events, and equal to an in-process Runner's ordered drain with the same
// shard count: keys partition by the same hash over the same count, each
// shard's engine is rebuilt deterministically from the same plan inputs,
// a remote shard holds its results for the barrier, and the runner
// drains the shards in index order. Worker placement, worker count,
// failovers, and rebalances are therefore invisible in the output:
// moving a shard between workers changes which process computes it,
// never what it emits.
//
// # Failure model
//
// The router journals everything it sends each shard (event frames as
// written, watermarks, barrier points) and periodically compacts the
// journal by asking the worker for an engine snapshot (engine.Snapshot —
// the checkpoint codec). When a worker dies, each of its shards is
// replayed onto a surviving worker: hello with the last snapshot, then
// the journal tail, its event frames written back verbatim. Journaled
// barriers are re-run and their regenerated rows discarded — they were
// already delivered — so delivery stays exactly-once and byte-identical
// through worker death. When no worker can take a shard, that key range
// is shed (ShardDownError; events for it are dropped and counted) while
// every other shard keeps serving — the server's degradation playbook
// applied to placement.
//
// Rebalancing is the same machinery invoked deliberately: snapshot the
// shard, hello the target worker with the blob, release the source
// session without flushing. Zero-gap, and exact: the target resumes the
// identical plan from the identical operator state, counters included.
//
// Every state move — compaction, failover, rebalance, drain, Snapshot
// and the re-plan handover (Carry) — carries the one state form, the
// engine snapshot, fetched with the snapshot op. It names its plan, so
// engine.Resume on the receiving worker restores it bit for bit when
// the plan is unchanged, and canonicalises it into the new plan when a
// re-plan changed it. The router never looks inside: state arrives as
// an engine.Carried (Spec.State), of which New encodes only engines
// still in memory, and a worker's snapshot passes through as its bytes.
//
// The router is fully synchronous and single-goroutine: every method
// must be called from the goroutine driving the pipeline (the server
// serializes on its own mutex). Workers still execute concurrently —
// the runner starts a barrier on every shard before awaiting any.
package router

import (
	"errors"
	"fmt"
	"net"

	"factorwindows/internal/agg"
	"factorwindows/internal/engine"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
)

// ShardDownError reports that a shard's key range is shed: its last
// host died and no live worker could take the replay. It unwraps to
// ErrShardDown for errors.Is checks.
type ShardDownError struct {
	Shard int
	// Addr is the last worker that hosted the shard.
	Addr string
}

// ErrShardDown is the sentinel under every ShardDownError.
var ErrShardDown = errors.New("router: shard down")

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("router: shard %d down (last worker %s); its key range is shed", e.Shard, e.Addr)
}

func (e *ShardDownError) Unwrap() error { return ErrShardDown }

// Spec describes one epoch of a distributed pipeline: the deterministic
// plan inputs every worker rebuilds the joint plan from, the workers,
// and optionally the state carried in — the previous epoch's or a
// checkpoint's snapshots, one shard's part each worker's hello payload.
type Spec struct {
	// Queries, Fn, Param, Eta, Factors are the plan inputs — the same
	// values the server's own multiquery.Optimize call uses, so every
	// worker derives the identical combined plan.
	Queries []multiquery.Query
	Fn      agg.Fn
	Param   float64
	Eta     int64
	Factors bool

	// Shards is the key-partition count. Ignored when State carries
	// shards (their count wins: the key→shard hash is a pure function of
	// the count, so state must keep its count).
	Shards int

	// Workers are the worker addresses; shard i starts on worker i mod
	// len(Workers).
	Workers []string

	// FreshFloor suppresses results of window instances starting before
	// it for windows with no carried state (multiquery's new-query
	// contract), and State resumes the carried shards and ingest counter.
	FreshFloor int64
	State      engine.Carried

	// Dial opens a worker connection; nil defaults to net.Dial("tcp").
	Dial func(addr string) (net.Conn, error)

	// CheckpointEvery compacts each shard's replay journal with an
	// engine snapshot every that-many barriers (0 defaults to 16).
	// Smaller keeps failover replay short; larger spends less time
	// snapshotting.
	CheckpointEvery int64
}

// journal op kinds: everything a shard session consumed since its last
// compaction point, in order.
const (
	opEvents = byte(iota)
	opAdvance
	opBarrier
)

type journalOp struct {
	kind   byte
	frames []byte // opEvents: the event frames exactly as written
	rows   int    // opEvents: the events they carry
	value  int64  // opAdvance: the horizon
}

// shardState is one remote shard: a session on a worker, and the
// bookkeeping that lets the session move. It is the parallel.Shard the
// embedded runner drives.
type shardState struct {
	r      *Runner
	idx    int
	worker int // index into Runner.workers; meaningless when down
	conn   net.Conn
	fr     *wire.Reader
	asm    wire.CtrlAssembler

	// state/floor are the hello payload: the blob the session resumes
	// from (opaque here; the engine reads its form off its header), and
	// the fresh floor for windows it does not cover. resumed is what the
	// last hello's ack reported handed over.
	state   []byte
	floor   int64
	resumed int

	journal  []journalOp
	barriers int64 // barriers acked: the compaction cadence counts these

	// rows holds results collected but not yet drained, as runs — the
	// same buffer type parallel's goroutine shards hold. Invariant:
	// outside an active collect of THIS shard, rows is complete through
	// the shard's last acked barrier — so failover and shedding must
	// keep it (the journaled barrier replays with its rows discarded;
	// these are the only copy). Only the collect whose own read failed
	// resets it, because that barrier is not journaled yet and re-runs
	// live.
	rows    stream.RunBuffer
	updates int64 // engine update counter from the last ack or bye
	// awaiting is the op written to this session whose reply is still
	// owed (CtrlBarrier or CtrlClose); "" when none.
	awaiting string
	down     bool
	downErr  *ShardDownError
	err      error // worker-reported failure: poisons the runner

	out []byte // control write scratch
}

type workerState struct {
	addr string
	live bool
}

// Runner drives N worker processes as one deterministic sharded engine:
// the embedded parallel.Runner over remote shards, plus the topology
// operations.
type Runner struct {
	*parallel.Runner

	spec Spec
	dial func(addr string) (net.Conn, error)

	shards  []*shardState
	workers []*workerState

	shedEvents int64
	failovers  int64
	rebalances int64
	migrated   int

	closed bool
}

// New connects one shard session per shard and returns the running
// router. Construction fails if any shard cannot be placed on a live
// worker — a pipeline that cannot host its whole key space should not
// start (shedding is for death mid-stream, not birth).
func New(spec Spec, sink stream.Sink) (*Runner, error) {
	if len(spec.Workers) == 0 {
		return nil, errors.New("router: no workers")
	}
	if len(spec.Queries) == 0 {
		return nil, errors.New("router: no queries")
	}
	r := &Runner{spec: spec, dial: spec.Dial}
	carried := spec.State.Shards
	if len(carried) == 0 && spec.Shards > 0 {
		carried = make([]engine.ShardState, spec.Shards)
	}
	n := len(carried)
	if n == 0 {
		return nil, fmt.Errorf("router: %d shards", spec.Shards)
	}
	r.spec.Shards = n
	if r.dial == nil {
		r.dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if r.spec.CheckpointEvery <= 0 {
		r.spec.CheckpointEvery = 16
	}
	for _, addr := range spec.Workers {
		r.workers = append(r.workers, &workerState{addr: addr, live: true})
	}
	shards := make([]parallel.Shard, n)
	for i := range shards {
		// Only an engine still in memory encodes here; bytes off a worker
		// or a checkpoint pass through.
		blob, err := carried[i].Bytes()
		if err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		sc := &shardState{r: r, idx: i, floor: spec.FreshFloor, state: blob}
		r.shards = append(r.shards, sc)
		shards[i] = sc
	}
	for i, sc := range r.shards {
		if err := r.placeShard(sc, i%len(r.workers)); err != nil {
			r.teardown()
			return nil, fmt.Errorf("router: placing shard %d: %w", i, err)
		}
	}
	// Each shard's hello ack reports what its engine.Resume handed over.
	// Summed once, here: a session opened later (failover, rebalance)
	// resumes state already counted.
	for _, sc := range r.shards {
		r.migrated += sc.resumed
	}
	r.Runner = parallel.Drive(shards, sink, spec.State.Events)
	return r, nil
}

// Migrated is the number of window instances the carried state handed
// over across New's shards.
func (r *Runner) Migrated() int { return r.migrated }

// teardown severs every open session without protocol niceties.
func (r *Runner) teardown() {
	for _, sc := range r.shards {
		r.dropConn(sc)
	}
}

func (r *Runner) dropConn(sc *shardState) {
	if sc.conn != nil {
		sc.conn.Close()
		sc.conn = nil
	}
	if sc.fr != nil {
		sc.fr.Close()
		sc.fr = nil
	}
	sc.asm = wire.CtrlAssembler{}
}

// fail records the shard's first worker-reported (or protocol) failure,
// which the runner's Err reports — as opposed to worker death, which the
// router absorbs by failover or shedding.
func (sc *shardState) fail(err error) {
	if sc.err == nil {
		sc.err = err
	}
}

// poison fails the shard and sheds it: another worker would fail it
// identically. The rows of the collect in progress go with it.
func (sc *shardState) poison(err error) {
	sc.rows.Reset()
	sc.fail(err)
	sc.r.shedShard(sc)
}

// helloCtrl builds the session-opening envelope for sc.
func (r *Runner) helloCtrl(sc *shardState) *wire.Ctrl {
	c := &wire.Ctrl{
		Op:      wire.CtrlHello,
		Shard:   sc.idx,
		Shards:  r.spec.Shards,
		Fn:      int(r.spec.Fn),
		Param:   r.spec.Param,
		Eta:     r.spec.Eta,
		Factors: r.spec.Factors,
		Floor:   sc.floor,
		State:   sc.state,
	}
	for _, q := range r.spec.Queries {
		cq := wire.CtrlQuery{ID: q.ID}
		for _, w := range q.Windows {
			cq.Windows = append(cq.Windows, wire.CtrlWindow{Range: w.Range, Slide: w.Slide})
		}
		c.Queries = append(c.Queries, cq)
	}
	return c
}

// errPoison marks a worker-reported (rather than transport) failure:
// retrying it on another worker would fail identically.
type errPoison struct{ err error }

func (e errPoison) Error() string { return e.err.Error() }
func (e errPoison) Unwrap() error { return e.err }

// placeShard connects sc to a live worker — preferred first, then by
// load — replaying its journal. Transport failures retire the worker
// and move on; a worker-reported error is poison and sheds the shard
// after poisoning the runner. Returns non-nil only when the shard ends
// up down.
func (r *Runner) placeShard(sc *shardState, preferred int) error {
	tried := make(map[int]bool)
	for {
		wi := preferred
		if wi < 0 || tried[wi] || !r.workers[wi].live {
			wi = r.leastLoaded(tried)
		}
		if wi < 0 {
			r.shedShard(sc)
			return sc.downErr
		}
		tried[wi] = true
		err := r.openSession(sc, wi)
		if err == nil {
			sc.worker = wi
			sc.down = false
			sc.downErr = nil
			sc.awaiting = ""
			return nil
		}
		r.dropConn(sc)
		var poison errPoison
		if errors.As(err, &poison) {
			sc.fail(fmt.Errorf("router: shard %d: %w", sc.idx, poison.err))
			r.shedShard(sc)
			return sc.downErr
		}
		// Retiring the worker severs every session it hosted; those
		// shards must be re-placed too, or they would be stranded
		// connection-less without being down. Recursion is bounded:
		// every retire shrinks the live-worker set.
		for _, o := range r.retireWorker(wi) {
			if r.placeShard(o, -1) == nil {
				r.failovers++
			}
		}
	}
}

// hostedBy reports whether sc has an open session on worker wi.
func (sc *shardState) hostedBy(wi int) bool {
	return !sc.down && sc.conn != nil && sc.worker == wi
}

// load counts the shard sessions open on worker wi.
func (r *Runner) load(wi int) int {
	n := 0
	for _, sc := range r.shards {
		if sc.hostedBy(wi) {
			n++
		}
	}
	return n
}

// leastLoaded picks the live worker hosting the fewest shard sessions,
// passing over the ones in skip; -1 when none qualifies. (A shard being
// placed has no open session, so it never counts against its own
// candidates.)
func (r *Runner) leastLoaded(skip map[int]bool) int {
	best, load := -1, 0
	for wi, w := range r.workers {
		if !w.live || skip[wi] {
			continue
		}
		if n := r.load(wi); best == -1 || n < load {
			best, load = wi, n
		}
	}
	return best
}

// liveWorker resolves addr to the index of a live worker.
func (r *Runner) liveWorker(addr string) (int, error) {
	for i, w := range r.workers {
		if w.addr == addr && w.live {
			return i, nil
		}
	}
	return -1, fmt.Errorf("router: no live worker %s", addr)
}

// shedShard marks sc's key range shed. Collected rows stay pending —
// they are complete through the last acked barrier (see the shardState
// invariant) and the next drain still owes them to the sink; callers
// abandoning a partial mid-barrier read clear sc.rows first.
func (r *Runner) shedShard(sc *shardState) {
	r.dropConn(sc)
	addr := ""
	if sc.worker >= 0 && sc.worker < len(r.workers) {
		addr = r.workers[sc.worker].addr
	}
	sc.down = true
	sc.downErr = &ShardDownError{Shard: sc.idx, Addr: addr}
	sc.journal = nil
	sc.awaiting = ""
}

// retireWorker marks a worker dead and severs its connected sessions.
// The caller re-places the orphaned shards. Only shards with an open
// connection are orphaned: a shard whose worker index merely points at
// wi with no session (mid-placement, closed, or never placed) is
// someone else's responsibility.
func (r *Runner) retireWorker(wi int) (orphans []*shardState) {
	w := r.workers[wi]
	if !w.live {
		return nil
	}
	w.live = false
	for _, sc := range r.shards {
		if sc.hostedBy(wi) {
			r.dropConn(sc)
			sc.awaiting = ""
			orphans = append(orphans, sc)
		}
	}
	return orphans
}

// failoverShard handles a transport failure on sc's session: its worker
// is retired and every shard it hosted (sc included) is re-placed.
//
// Pending rows are deliberately left alone. A sibling shard that
// already acked the current barrier holds collected-but-undrained rows,
// and its journal already ends with that barrier, so the replay re-runs
// it with the regenerated rows discarded — the rows in hand are the
// only copy and the drain still owes them to the sink. The collect
// whose own read failed clears its rows itself (that barrier is not
// journaled yet and re-runs live).
func (r *Runner) failoverShard(sc *shardState) {
	orphans := r.retireWorker(sc.worker)
	if orphans == nil {
		// Worker already retired (a sibling's failover got here first);
		// just re-place this shard.
		orphans = []*shardState{sc}
	}
	for _, o := range orphans {
		if r.placeShard(o, -1) == nil {
			r.failovers++
		}
	}
}

// openSession dials worker wi, replays sc's session onto it (hello
// with carried state, then the journal), and leaves the session at the
// stream position every live session shares. Transport errors come
// back raw; worker-reported errors come back wrapped in errPoison.
func (r *Runner) openSession(sc *shardState, wi int) error {
	conn, err := r.dial(r.workers[wi].addr)
	if err != nil {
		return err
	}
	sc.conn = conn
	sc.fr = wire.NewReader(conn)
	sc.asm = wire.CtrlAssembler{}
	if err := sc.sendCtrl(r.helloCtrl(sc)); err != nil {
		return err
	}
	ack, err := sc.readAck(wire.CtrlAck, false)
	if err != nil {
		return err
	}
	sc.resumed = ack.Migrated
	// Replay the journal: the worker re-derives exactly the state the
	// dead session held. Journaled barriers are re-run so the engine
	// flushes at the same points it originally did, and the regenerated
	// rows are discarded — the original rows were already delivered.
	for _, op := range sc.journal {
		switch op.kind {
		case opEvents:
			if _, err := sc.conn.Write(op.frames); err != nil {
				return err
			}
		case opAdvance:
			if err := sc.sendCtrl(&wire.Ctrl{Op: wire.CtrlAdvance, Horizon: op.value}); err != nil {
				return err
			}
		case opBarrier:
			if err := sc.sendCtrl(&wire.Ctrl{Op: wire.CtrlBarrier}); err != nil {
				return err
			}
			if _, err := sc.readAck(wire.CtrlAck, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendCtrl writes one control envelope on sc's session.
func (sc *shardState) sendCtrl(c *wire.Ctrl) error {
	sc.out = wire.AppendCtrl(sc.out[:0], uint32(sc.idx), c)
	_, err := sc.conn.Write(sc.out)
	return err
}

// readAck reads sc's session until a control envelope of op arrives and
// returns it. discardRows accepts (and drops) result frames on the way
// — the journal-replay barrier case; otherwise a result frame is a
// protocol violation. A CtrlError envelope returns errPoison.
func (sc *shardState) readAck(op string, discardRows bool) (wire.Ctrl, error) {
	for {
		f, err := sc.fr.Next()
		if err != nil {
			return wire.Ctrl{}, err
		}
		switch f.Kind {
		case wire.KindResults:
			if !discardRows {
				return wire.Ctrl{}, fmt.Errorf("router: unexpected result frame awaiting %q", op)
			}
		case wire.KindControl:
			c, done, err := sc.asm.Add(f)
			if err != nil {
				return wire.Ctrl{}, err
			}
			if !done {
				continue
			}
			switch c.Op {
			case op:
				return c, nil
			case wire.CtrlError:
				return wire.Ctrl{}, errPoison{errors.New(c.Error)}
			default:
				return wire.Ctrl{}, fmt.Errorf("router: unexpected control op %q awaiting %q", c.Op, op)
			}
		default:
			return wire.Ctrl{}, fmt.Errorf("router: unexpected frame kind %d", f.Kind)
		}
	}
}

// Send journals the shard's part and writes it, encoded once: the
// frames written are the frames journaled, so a failover replays these
// bytes verbatim. A shed shard's part is dropped and counted. No worker
// round-trip happens here.
func (sc *shardState) Send(part parallel.Part) {
	if sc.down {
		sc.r.shedEvents += int64(len(part.Events))
		part.Done()
		return
	}
	// One fresh buffer per part: the journal holds it until compaction,
	// and pooled ones would inflate the live heap.
	frames := wire.AppendEventFrames(nil, part.Events)
	rows := len(part.Events)
	part.Done()
	// Journal first: if the write fails, the failover replay must
	// include this batch.
	sc.journal = append(sc.journal, journalOp{kind: opEvents, frames: frames, rows: rows})
	if _, err := sc.conn.Write(frames); err != nil {
		sc.r.failoverShard(sc)
	}
}

// Watermark journals and sends the release horizon.
func (sc *shardState) Watermark(t int64) {
	if sc.down {
		return
	}
	sc.journal = append(sc.journal, journalOp{kind: opAdvance, value: t})
	if err := sc.sendCtrl(&wire.Ctrl{Op: wire.CtrlAdvance, Horizon: t}); err != nil {
		sc.r.failoverShard(sc)
	}
}

// StartBarrier writes the barrier; the worker flushes while the runner
// starts the others.
func (sc *shardState) StartBarrier() { sc.r.ensureSent(sc, wire.CtrlBarrier) }

// AwaitBarrier collects the barrier's results and, on the checkpoint
// cadence, compacts the journal into an engine snapshot. The snapshot
// is the engine's whole state as it stands — it absorbs every journaled
// op, and this barrier's rows are already collected, so a failover
// after compaction regenerates nothing twice. It needs no cut point: a
// pipeline that never Advances compacts like any other.
func (sc *shardState) AwaitBarrier() *stream.RunBuffer {
	if c, ok := sc.r.collect(sc, wire.CtrlBarrier, wire.CtrlAck); ok {
		sc.updates = c.Updates
		sc.journal = append(sc.journal, journalOp{kind: opBarrier})
		if sc.barriers++; sc.barriers%sc.r.spec.CheckpointEvery == 0 {
			sc.r.checkpointShard(sc)
		}
	}
	return &sc.rows
}

// StartClose asks the worker to flush the engine and end the session.
func (sc *shardState) StartClose() {
	sc.r.closed = true
	sc.r.ensureSent(sc, wire.CtrlClose)
}

// AwaitClose collects the final flush, then severs the session.
func (sc *shardState) AwaitClose() *stream.RunBuffer {
	if c, ok := sc.r.collect(sc, wire.CtrlClose, wire.CtrlBye); ok {
		sc.updates = c.Updates
	}
	sc.r.dropConn(sc)
	return &sc.rows
}

// State fetches the shard engine's snapshot; the worker's bytes pass
// through untouched. A shed shard fails it: partial state would
// silently drop the shed range's open instances, so the caller (a
// checkpoint, the server's re-plan) must degrade explicitly instead.
func (sc *shardState) State() (engine.ShardState, error) {
	blob, err := sc.r.fetchSnapshot(sc)
	return engine.Encoded(blob), err
}

// Updates is the engine update counter as of the last ack or bye.
func (sc *shardState) Updates() int64 { return sc.updates }

func (sc *shardState) Err() error { return sc.err }

// ensureSent writes op (a barrier or a close) to sc's session unless
// this session already has it, failing over (and retrying on the new
// session) until written or shed.
func (r *Runner) ensureSent(sc *shardState, op string) {
	for !sc.down && sc.awaiting != op {
		if err := sc.sendCtrl(&wire.Ctrl{Op: op}); err != nil {
			r.failoverShard(sc)
			continue
		}
		sc.awaiting = op
	}
}

// collect reads sc's session until the reply to op (a barrier's ack, a
// close's bye) arrives, appending result frames to the shard's pending
// rows. A transport failure mid-read fails over: the rows read so far
// are reset, the journal replay regenerates (and discards) earlier
// barriers, and op is re-sent and re-read fresh — a failover inside a
// sibling's collect may likewise have moved this shard with op unsent.
// A worker-reported error or a protocol violation poisons the shard.
// ok is false when the shard ended up down.
func (r *Runner) collect(sc *shardState, op, reply string) (c wire.Ctrl, ok bool) {
	for {
		r.ensureSent(sc, op)
		if sc.down {
			return wire.Ctrl{}, false
		}
		f, err := sc.fr.Next()
		if err == nil {
			switch f.Kind {
			case wire.KindResults:
				sc.appendRows(f)
				continue
			case wire.KindControl:
				var done bool
				if c, done, err = sc.asm.Add(f); err == nil && !done {
					continue
				}
			default:
				// Same protocol enforcement readAck applies: a frame kind
				// no worker should send here is poison, not something to
				// skip.
				sc.poison(fmt.Errorf("router: shard %d: unexpected frame kind %d awaiting %q", sc.idx, f.Kind, reply))
				return wire.Ctrl{}, false
			}
		}
		if err != nil {
			sc.rows.Reset()
			r.failoverShard(sc)
			continue
		}
		switch c.Op {
		case reply:
			sc.awaiting = ""
			return c, true
		case wire.CtrlError:
			// Worker-side engine failure: poison, like a goroutine shard's
			// panic. The caller sees Err and tears the pipeline down.
			sc.poison(fmt.Errorf("router: shard %d: %s", sc.idx, c.Error))
		default:
			sc.poison(fmt.Errorf("router: shard %d: unexpected control op %q awaiting %q", sc.idx, c.Op, reply))
		}
		return wire.Ctrl{}, false
	}
}

// appendRows decodes one result frame onto sc's pending rows. The frame
// keeps its per-row header columns; the buffer folds consecutive rows
// with equal headers back into the runs the worker flushed.
func (sc *shardState) appendRows(f wire.Frame) {
	for j := 0; j < f.Rows(); j++ {
		_, rng, slide, start, end, key, value := f.Result(j)
		sc.rows.Emit(stream.Result{
			W:     window.Window{Range: rng, Slide: slide},
			Start: start,
			End:   end,
			Key:   key,
			Value: value,
		})
	}
}

// checkpointShard compacts sc's journal into an engine snapshot, the
// state its later sessions (failover replay, rebalance target) resume
// from. Best-effort: a transport failure fails over and asks again (the
// old journal replays first), and a worker-reported failure poisons.
func (r *Runner) checkpointShard(sc *shardState) {
	blob, err := r.fetchSnapshot(sc)
	if err != nil {
		var poison errPoison
		if errors.As(err, &poison) {
			sc.fail(err)
			r.shedShard(sc)
		}
		return
	}
	sc.state = blob
	sc.journal = nil
}

// fetchSnapshot asks sc's worker for its engine snapshot, failing over and
// re-asking until every worker has had a turn. A worker-reported error
// is final: another worker would fail identically.
func (r *Runner) fetchSnapshot(sc *shardState) ([]byte, error) {
	req := &wire.Ctrl{Op: wire.CtrlSnapshot}
	for attempt := 0; ; attempt++ {
		if sc.down {
			return nil, sc.downErr
		}
		err := sc.sendCtrl(req)
		if err == nil {
			var c wire.Ctrl
			c, err = sc.readAck(req.Op, false)
			if err == nil {
				return append([]byte(nil), c.State...), nil
			}
		}
		var poison errPoison
		if errors.As(err, &poison) {
			return nil, fmt.Errorf("router: shard %d %s: %w", sc.idx, req.Op, poison)
		}
		if attempt >= len(r.workers) {
			return nil, fmt.Errorf("router: shard %d %s: %w", sc.idx, req.Op, err)
		}
		r.failoverShard(sc)
	}
}

// ShedError returns a typed error describing the first shed key range,
// or nil when every shard is serving. Degradation, not poison: the
// pipeline keeps serving the live ranges either way.
func (r *Runner) ShedError() error {
	for _, sc := range r.shards {
		if sc.down && sc.downErr != nil {
			return sc.downErr
		}
	}
	return nil
}

// AddWorker adds (or revives) a worker address for future placements
// and rebalances. It does not move any shard by itself.
func (r *Runner) AddWorker(addr string) error {
	for _, w := range r.workers {
		if w.addr == addr {
			if w.live {
				return fmt.Errorf("router: worker %s already live", addr)
			}
			w.live = true
			return nil
		}
	}
	r.workers = append(r.workers, &workerState{addr: addr, live: true})
	return nil
}

// Rebalance moves one shard to the worker at addr, zero-gap: quiesce,
// snapshot the shard's engine, open a session on the target with the
// blob, release the source session without flushing. The result stream
// and the engine's counters are unaffected — placement is invisible to
// the determinism contract.
func (r *Runner) Rebalance(shard int, addr string) error {
	if r.closed {
		return errors.New("router: Rebalance after Close")
	}
	if shard < 0 || shard >= len(r.shards) {
		return fmt.Errorf("router: no shard %d", shard)
	}
	wi, err := r.liveWorker(addr)
	if err != nil {
		return err
	}
	sc := r.shards[shard]
	if sc.down {
		return sc.downErr
	}
	if sc.worker == wi {
		return nil
	}
	// Quiesce so the snapshot sits on a barrier boundary, then compact
	// the journal into it — the "frame transfer" of the move.
	r.Barrier()
	if err := r.Err(); err != nil {
		return err
	}
	if sc.down {
		return sc.downErr
	}
	r.checkpointShard(sc)
	if sc.down {
		return sc.downErr
	}
	if err := r.Err(); err != nil {
		return err
	}
	old, oldFr, oldWorker := sc.conn, sc.fr, sc.worker
	sc.conn, sc.fr = nil, nil
	sc.asm = wire.CtrlAssembler{}
	if err := r.openSession(sc, wi); err != nil {
		// Target refused; keep serving from the source session.
		r.dropConn(sc)
		sc.conn, sc.fr = old, oldFr
		sc.worker = oldWorker
		var poison errPoison
		if errors.As(err, &poison) {
			return fmt.Errorf("router: rebalance shard %d: %w", shard, poison.err)
		}
		// A refused new session doesn't prove the target's existing
		// sessions are dead — leave them serving and let their own
		// traffic detect death. Only a target hosting nothing is safe
		// to retire on this evidence, keeping it out of placement until
		// an AddWorker revives it.
		if r.load(wi) == 0 {
			r.retireWorker(wi)
		}
		return fmt.Errorf("router: rebalance shard %d to %s: %w", shard, addr, err)
	}
	sc.worker = wi
	sc.awaiting = ""
	r.rebalances++
	// Release the source: its engine state has moved, so it must not
	// flush. Best-effort — the source may already be gone.
	relOut := wire.AppendCtrl(nil, uint32(sc.idx), &wire.Ctrl{Op: wire.CtrlRelease})
	old.Write(relOut)
	old.Close()
	oldFr.Close()
	return nil
}

// Drain moves every shard off the worker at addr and retires it —
// scale-in. Fails if any shard has nowhere to go.
func (r *Runner) Drain(addr string) error {
	if r.closed {
		return errors.New("router: Drain after Close")
	}
	wi, err := r.liveWorker(addr)
	if err != nil {
		return err
	}
	live := 0
	for _, w := range r.workers {
		if w.live {
			live++
		}
	}
	if live <= 1 {
		return fmt.Errorf("router: cannot drain %s: it is the last live worker", addr)
	}
	// Every Rebalance below runs a Barrier, during which an unrelated
	// worker death can fail an already-moved shard back onto wi — so
	// keep re-scanning until a full pass finds nothing left before
	// retiring the worker. Each fail-back requires a worker death, so
	// the pass count is bounded by the worker count.
	for pass := 0; ; pass++ {
		remaining := false
		for _, sc := range r.shards {
			if sc.down || sc.worker != wi {
				continue
			}
			remaining = true
			best := r.leastLoaded(map[int]bool{wi: true})
			if best < 0 {
				return fmt.Errorf("router: cannot drain %s: no live target", addr)
			}
			if err := r.Rebalance(sc.idx, r.workers[best].addr); err != nil {
				return err
			}
		}
		if !remaining {
			break
		}
		if pass > len(r.workers) {
			return fmt.Errorf("router: cannot drain %s: shards keep failing back onto it", addr)
		}
	}
	r.workers[wi].live = false
	return nil
}

// WorkerInfo is one worker's row in the topology report.
type WorkerInfo struct {
	Addr   string `json:"addr"`
	Live   bool   `json:"live"`
	Shards []int  `json:"shards"`
}

// Topology is the /stats view of the distributed layout.
type Topology struct {
	Workers    []WorkerInfo `json:"workers"`
	ShedShards []int        `json:"shed_shards,omitempty"`
	ShedEvents int64        `json:"shed_events,omitempty"`
	Failovers  int64        `json:"failovers,omitempty"`
	Rebalances int64        `json:"rebalances,omitempty"`
	// JournaledEvents counts event rows currently held in per-shard
	// replay journals — the failover replay backlog, bounded by the
	// compaction cadence. Unbounded growth here means compaction is
	// not keeping up.
	JournaledEvents int64 `json:"journaled_events,omitempty"`
}

// Topology reports the current worker/shard layout and degradation
// counters.
func (r *Runner) Topology() Topology {
	t := Topology{
		ShedEvents: r.shedEvents,
		Failovers:  r.failovers,
		Rebalances: r.rebalances,
	}
	for _, sc := range r.shards {
		for _, op := range sc.journal {
			t.JournaledEvents += int64(op.rows)
		}
	}
	for wi, w := range r.workers {
		info := WorkerInfo{Addr: w.addr, Live: w.live}
		for _, sc := range r.shards {
			if sc.hostedBy(wi) {
				info.Shards = append(info.Shards, sc.idx)
			}
		}
		t.Workers = append(t.Workers, info)
	}
	for _, sc := range r.shards {
		if sc.down {
			t.ShedShards = append(t.ShedShards, sc.idx)
		}
	}
	return t
}
