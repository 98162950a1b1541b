package router_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/cost"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/plan"
	"factorwindows/internal/router"
	"factorwindows/internal/shardworker"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
	"factorwindows/internal/workload"
)

// startWorker spawns an in-process shard worker on a loopback listener.
func startWorker(t *testing.T) (string, *shardworker.Worker) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	w := shardworker.New()
	go w.Serve(ln)
	t.Cleanup(w.Close)
	return ln.Addr().String(), w
}

var testQueries = []multiquery.Query{
	{ID: "q1", Windows: []window.Window{{Range: 16, Slide: 16}, {Range: 12, Slide: 6}}},
	{ID: "q2", Windows: []window.Window{{Range: 24, Slide: 8}}},
}

// nestedQueries chains tumbling windows (T20 feeds T40 feeds T80 in the
// joint plan), so at any move some parent instance is open over state
// its children have not received yet.
var nestedQueries = []multiquery.Query{
	{ID: "q1", Windows: []window.Window{{Range: 20, Slide: 20}, {Range: 40, Slide: 40}}},
	{ID: "q2", Windows: []window.Window{{Range: 80, Slide: 80}}},
}

// load is one input the suites run under: a query set, an aggregate and
// a seeded stream. events gets the (seed, n, keys) the suite has always
// passed genEvents.
type load struct {
	name   string
	qs     []multiquery.Query
	fn     agg.Fn
	param  float64
	events func(seed int64, n, keys int) []stream.Event
}

// intSum is the input every suite started with: integer values, whose
// sums are exact in float64 under any association.
var intSum = load{name: "int-sum", qs: testQueries, fn: agg.Sum, events: genEvents}

// moveLoads adds the order-sensitive inputs (workload.OrderSensitive) to
// the suites that move a shard's state mid-stream: a move must not
// change one bit of float sums or of compacting quantile sketches, nor
// lose an engine counter.
var moveLoads = []load{
	intSum,
	// 10 keys × 5 events per tick: 10 / 20 / 40 values per key per
	// T20 / T40 / T80 instance — enough addends that regrouping them
	// rounds differently.
	{name: "float-sum", qs: nestedQueries, fn: agg.Sum,
		events: func(seed int64, n, _ int) []stream.Event {
			return workload.OrderSensitive(workload.StreamConfig{Events: n, Keys: 10, EventsPerTick: 5, Seed: seed})
		}},
	// 8 keys × 40 values per key per tick: 800 = 4·k values per key in
	// every T20 instance, so all three windows' KLL sketches compact.
	// The script is a fixed 256 ticks, past three T80 instances, so the
	// suites' move and kill points land in later instances too.
	{name: "dense-percentile", qs: nestedQueries, fn: agg.Percentile, param: 0.5,
		events: func(seed int64, _, _ int) []stream.Event {
			return workload.OrderSensitive(workload.StreamConfig{Events: 256 * 320, Keys: 8, EventsPerTick: 320, Seed: seed})
		}},
}

// chunkAt draws a chunk index from rng over the whole of an n-event
// script cut into chunk-event chunks, past the first and before the
// last: where the move suites kill, move or fetch.
func chunkAt(rng *rand.Rand, n, chunk int) int {
	chunks := (n + chunk - 1) / chunk
	return 1 + rng.Intn(chunks-2)
}

// refPlan builds the single-process reference plan from the same inputs
// the workers rebuild theirs from.
func refPlan(t *testing.T, ld load) *multiquery.Plan {
	t.Helper()
	mp, err := multiquery.Optimize(ld.qs, ld.fn, core.Options{Factors: true, Model: cost.Model{Eta: 1}})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	mp.Combined.Param = ld.param
	return mp
}

// genEvents produces a seeded, time-nondecreasing event stream.
func genEvents(seed int64, n, keys int) []stream.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]stream.Event, n)
	t := int64(0)
	for i := range events {
		t += int64(rng.Intn(3))
		events[i] = stream.Event{Time: t, Key: uint64(rng.Intn(keys)), Value: float64(rng.Intn(100))}
	}
	return events
}

// drive feeds events to any runner with the server's cadence: chunked
// Process, Advance to the chunk's last time, Barrier per chunk.
type driven interface {
	Process([]stream.Event)
	Advance(int64)
	Barrier()
	Close()
}

func drive(r driven, events []stream.Event, chunk int, between func(i int)) {
	for off := 0; off < len(events); off += chunk {
		part := events[off:min(off+chunk, len(events))]
		r.Process(part)
		r.Advance(part[len(part)-1].Time)
		r.Barrier()
		if between != nil {
			between(off / chunk)
		}
	}
	r.Close()
}

// reference runs the in-process parallel engine over events and returns
// its ordered result sequence and its engine update counter.
func reference(t *testing.T, ld load, shards int, events []stream.Event, chunk int) ([]stream.Result, int64) {
	t.Helper()
	mp := refPlan(t, ld)
	sink := &stream.CollectingSink{}
	ref, err := parallel.New(mp.Combined, sink, shards)
	if err != nil {
		t.Fatalf("parallel.New: %v", err)
	}
	ref.SetOrderedDrain(true)
	drive(ref, events, chunk, nil)
	if err := ref.Err(); err != nil {
		t.Fatalf("reference runner: %v", err)
	}
	return sink.Results, ref.TotalUpdates()
}

// restore resumes in-process shards from a sharded snapshot envelope.
func restore(p *plan.Plan, sink stream.Sink, blob []byte) (*parallel.Runner, error) {
	state, err := parallel.DecodeSnapshot(blob)
	if err != nil {
		return nil, err
	}
	r, _, err := parallel.Resume(p, sink, 0, state, 0)
	return r, err
}

// spec is ld's router configuration; tests needing a Dial set it on the
// copy.
func (ld load) spec(shards int, addrs []string, every int64) router.Spec {
	return router.Spec{
		Queries:         ld.qs,
		Fn:              ld.fn,
		Param:           ld.param,
		Eta:             1,
		Factors:         true,
		Shards:          shards,
		Workers:         addrs,
		CheckpointEvery: every,
	}
}

func newRouter(t *testing.T, ld load, shards int, addrs []string, every int64) (*router.Runner, *stream.CollectingSink) {
	t.Helper()
	sink := &stream.CollectingSink{}
	r, err := router.New(ld.spec(shards, addrs, every), sink)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	return r, sink
}

// assertSameResults requires got to be want row for row, values compared
// by bit pattern; it reports how many rows differ before failing, since
// "3 of 18,589" is what an inexact state move looks like.
func assertSameResults(t *testing.T, got, want []stream.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	first, diff := -1, 0
	for i := range got {
		g, w := got[i], want[i]
		g.Value, w.Value = 0, 0
		if g != w || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			if diff++; first < 0 {
				first = i
			}
		}
	}
	if diff > 0 {
		t.Fatalf("%d of %d results differ; first is result %d: got %+v, want %+v",
			diff, len(want), first, got[first], want[first])
	}
}

// TestRouterMatchesParallel is the core determinism property: the
// distributed drain is byte-equal to the in-process ordered drain, for
// every shard count × worker count combination.
func TestRouterMatchesParallel(t *testing.T) {
	events := genEvents(401, 4000, 40)
	const chunk = 256
	for _, shards := range []int{1, 4, 7} {
		want, _ := reference(t, intSum, shards, events, chunk)
		for _, nWorkers := range []int{1, 2, 4} {
			addrs := make([]string, nWorkers)
			for i := range addrs {
				addrs[i], _ = startWorker(t)
			}
			r, sink := newRouter(t, intSum, shards, addrs, 4)
			drive(r, events, chunk, nil)
			if err := r.Err(); err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, nWorkers, err)
			}
			assertSameResults(t, sink.Results, want)
		}
	}
}

// TestRouterWorkerKillFailover kills a worker mid-stream: its shards
// replay onto survivors and the output stays byte-identical, engine
// counters included.
func TestRouterWorkerKillFailover(t *testing.T) {
	const chunk = 256
	const shards = 7
	rng := rand.New(rand.NewSource(7701))
	for _, ld := range moveLoads {
		t.Run(ld.name, func(t *testing.T) {
			events := ld.events(77, 6000, 60)
			kill := chunkAt(rng, len(events), chunk)
			t.Logf("kill after chunk %d of %d events", kill, len(events))
			want, wantUpdates := reference(t, ld, shards, events, chunk)
			for _, every := range []int64{1, 4, 1000} { // checkpoint cadences: every barrier, periodic, never-yet
				addrs := make([]string, 3)
				workers := make([]*shardworker.Worker, 3)
				for i := range addrs {
					addrs[i], workers[i] = startWorker(t)
				}
				r, sink := newRouter(t, ld, shards, addrs, every)
				drive(r, events, chunk, func(i int) {
					if i == kill {
						workers[1].Close() // mid-stream kill, between barriers
					}
				})
				if err := r.Err(); err != nil {
					t.Fatalf("every=%d: router: %v", every, err)
				}
				assertSameResults(t, sink.Results, want)
				if got := r.TotalUpdates(); got != wantUpdates {
					t.Fatalf("every=%d: TotalUpdates = %d after the failover, reference %d", every, got, wantUpdates)
				}
				topo := r.Topology()
				if topo.Failovers == 0 {
					t.Fatalf("every=%d: kill did not register a failover: %+v", every, topo)
				}
				if len(topo.ShedShards) != 0 {
					t.Fatalf("every=%d: shards shed despite live workers: %+v", every, topo)
				}
			}
		})
	}
}

// TestRouterKillDuringBarrier kills the worker while the router is
// blocked reading its barrier acks, exercising the mid-collect failover
// path (sibling shards on the dead worker re-send the barrier).
func TestRouterKillDuringBarrier(t *testing.T) {
	const shards = 4
	rng := rand.New(rand.NewSource(1305))
	for _, ld := range moveLoads {
		t.Run(ld.name, func(t *testing.T) {
			events := ld.events(13, 4000, 50)
			// Any event of the script, so the kill usually lands with
			// instances of the nested windows open.
			half := 1 + rng.Intn(len(events)-1)
			t.Logf("kill after event %d of %d", half, len(events))
			// The ordered drain's sequence depends on the barrier schedule, so
			// the reference must share this test's two-barrier cadence.
			mp := refPlan(t, ld)
			refSink := &stream.CollectingSink{}
			ref, err := parallel.New(mp.Combined, refSink, shards)
			if err != nil {
				t.Fatalf("parallel.New: %v", err)
			}
			ref.SetOrderedDrain(true)
			ref.Process(events[:half])
			ref.Advance(events[half-1].Time)
			ref.Barrier()
			ref.Process(events[half:])
			ref.Advance(events[len(events)-1].Time)
			ref.Barrier()
			ref.Close()
			want := refSink.Results
			addrs := make([]string, 2)
			workers := make([]*shardworker.Worker, 2)
			for i := range addrs {
				addrs[i], workers[i] = startWorker(t)
			}
			// Compact at every barrier, so the replay onto the survivor
			// starts from the state fetched at the first one.
			r, sink := newRouter(t, ld, shards, addrs, 1)
			r.Process(events[:half])
			r.Advance(events[half-1].Time)
			r.Barrier()
			// Kill between Process and Barrier: the events for worker 0's
			// shards are journaled but their barrier ack will never come; the
			// collect phase must fail over and re-run the barrier elsewhere.
			r.Process(events[half:])
			workers[0].Close()
			r.Advance(events[len(events)-1].Time)
			r.Barrier()
			r.Close()
			if err := r.Err(); err != nil {
				t.Fatalf("router: %v", err)
			}
			assertSameResults(t, sink.Results, want)
			if got, w := r.TotalUpdates(), ref.TotalUpdates(); got != w {
				t.Fatalf("TotalUpdates = %d after the failover, reference %d", got, w)
			}
		})
	}
}

// failingConn wraps a session's connection so its reads fail once armed
// — a transport fault on one specific shard session while the worker
// process (and its sibling sessions) stays healthy.
type failingConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c *failingConn) Read(p []byte) (int, error) {
	if c.armed.Load() {
		return 0, errors.New("injected read failure")
	}
	return c.Conn.Read(p)
}

// faultDialer dials for real but wraps the nth connection to addr in a
// failingConn tied to armed.
func faultDialer(addr string, nth int, armed *atomic.Bool) func(string) (net.Conn, error) {
	var mu sync.Mutex
	counts := map[string]int{}
	return func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		counts[a]++
		n := counts[a]
		mu.Unlock()
		if a == addr && n == nth {
			return &failingConn{Conn: conn, armed: armed}, nil
		}
		return conn, nil
	}
}

// TestRouterKillBetweenBarrierAcks pins the nastiest failover
// interleaving: a worker hosting two shards dies *between* its shards'
// barrier acks. With 4 shards on 2 workers, worker 0 hosts shards 0 and
// 2; the collect phase runs in shard order, so when shard 2's read
// fails, sibling shard 0 has already acked the current barrier — its
// journal ends with that barrier and its collected rows are pending
// emit. The failover must keep those rows (the replay regenerates and
// discards them) or they are permanently lost.
func TestRouterKillBetweenBarrierAcks(t *testing.T) {
	const chunk = 256
	const shards = 4
	rng := rand.New(rand.NewSource(27101))
	for _, ld := range moveLoads {
		t.Run(ld.name, func(t *testing.T) {
			events := ld.events(271, 4000, 50)
			arm := chunkAt(rng, len(events), chunk)
			t.Logf("arm after chunk %d of %d events", arm, len(events))
			want, wantUpdates := reference(t, ld, shards, events, chunk)
			for _, every := range []int64{3, 1000} { // with and without compaction in play
				addrs := make([]string, 2)
				for i := range addrs {
					addrs[i], _ = startWorker(t)
				}
				var armed atomic.Bool
				sink := &stream.CollectingSink{}
				// Session dials during placement run in shard order, so the 2nd
				// dial to worker 0 is shard 2's session.
				spec := ld.spec(shards, addrs, every)
				spec.Dial = faultDialer(addrs[0], 2, &armed)
				r, err := router.New(spec, sink)
				if err != nil {
					t.Fatalf("router.New: %v", err)
				}
				drive(r, events, chunk, func(i int) {
					if i == arm {
						// Arm between barriers: the next Barrier's phase 1 writes
						// still land, shard 0 acks and journals the barrier, then
						// shard 2's collect read fails and fails both over.
						armed.Store(true)
					}
				})
				if err := r.Err(); err != nil {
					t.Fatalf("every=%d: router: %v", every, err)
				}
				topo := r.Topology()
				if topo.Failovers < 2 {
					t.Fatalf("every=%d: expected both of worker 0's shards failed over, topology %+v", every, topo)
				}
				if len(topo.ShedShards) != 0 {
					t.Fatalf("every=%d: shards shed despite a live worker: %+v", every, topo)
				}
				assertSameResults(t, sink.Results, want)
				if got := r.TotalUpdates(); got != wantUpdates {
					t.Fatalf("every=%d: TotalUpdates = %d after the failover, reference %d", every, got, wantUpdates)
				}
			}
		})
	}
}

// midCollectConn fails a shard session in the middle of a barrier
// collect: once armed it lets one more whole frame through — the
// barrier's result frame, which the router appends to the shard's
// pending rows — and fails the read of the next frame's length prefix,
// the ack's. It follows the frame boundaries itself (wire.Reader reads a
// 4-byte prefix, then exactly the body), so where TCP happens to split
// the bytes does not matter.
type midCollectConn struct {
	net.Conn
	armed      *atomic.Bool
	passed     int  // frames let through since arming
	left       int  // bytes of the current frame's body still to deliver
	kindSeen   bool // the current frame's kind byte has been delivered
	gotResults *atomic.Bool
}

func (c *midCollectConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		if c.armed.Load() && c.passed == 1 {
			return 0, errors.New("injected read failure between result frame and ack")
		}
		var prefix [4]byte
		if _, err := io.ReadFull(c.Conn, prefix[:]); err != nil {
			return 0, err
		}
		c.left, c.kindSeen = int(binary.LittleEndian.Uint32(prefix[:])), false
		if c.armed.Load() {
			c.passed++
		}
		return copy(p, prefix[:]), nil // wire.Reader asks for exactly the prefix
	}
	n, err := c.Conn.Read(p[:min(len(p), c.left)])
	if !c.kindSeen && n >= 4 {
		// Body offset 3 is the frame kind ('F', 'W', version, kind).
		if c.kindSeen = true; c.armed.Load() && p[3] == wire.KindResults {
			c.gotResults.Store(true)
		}
	}
	c.left -= n
	return n, err
}

// TestRouterFailoverMidCollectLeavesNoStaleRun: a session that dies
// after its barrier's result frame was appended to the shard's pending
// runs, but before the ack, must have those runs — headers and columns
// both — reset before the barrier re-runs on the survivor. A header (or
// a column tail) that outlived the reset would surface as duplicated or
// misattributed rows; the drain must stay identical to the reference.
func TestRouterFailoverMidCollectLeavesNoStaleRun(t *testing.T) {
	events := genEvents(311, 4000, 50)
	const chunk = 256
	const shards = 4
	want, _ := reference(t, intSum, shards, events, chunk)
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i], _ = startWorker(t)
	}
	var armed, gotResults atomic.Bool
	var dials atomic.Int32
	sink := &stream.CollectingSink{}
	r, err := router.New(router.Spec{
		Queries:         testQueries,
		Fn:              agg.Sum,
		Eta:             1,
		Factors:         true,
		Shards:          shards,
		Workers:         addrs,
		CheckpointEvery: 1000,
		Dial: func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			// Placement dials in shard order: the 2nd dial is shard 1's
			// session (worker 1's first).
			if dials.Add(1) == 2 {
				return &midCollectConn{Conn: conn, armed: &armed, gotResults: &gotResults}, nil
			}
			return conn, nil
		},
	}, sink)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	drive(r, events, chunk, func(i int) {
		if i == 5 {
			armed.Store(true)
		}
	})
	if err := r.Err(); err != nil {
		t.Fatalf("router: %v", err)
	}
	if !gotResults.Load() {
		t.Fatal("the session failed before delivering a result frame: not a mid-collect failure")
	}
	if topo := r.Topology(); topo.Failovers == 0 || len(topo.ShedShards) != 0 {
		t.Fatalf("expected a clean failover, topology %+v", topo)
	}
	assertSameResults(t, sink.Results, want)
}

// TestRouterRebalanceRefusedKeepsTarget: a target that refuses the
// rebalance dial but still hosts healthy sessions must stay live and
// keep serving them; a refused target hosting nothing is retired.
func TestRouterRebalanceRefusedKeepsTarget(t *testing.T) {
	events := genEvents(52, 3000, 40)
	const chunk = 256
	const shards = 4
	want, _ := reference(t, intSum, shards, events, chunk)
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i], _ = startWorker(t)
	}
	// An address with nothing listening behind it: dials are refused.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	var refuse atomic.Bool
	sink := &stream.CollectingSink{}
	r, err := router.New(router.Spec{
		Queries:         testQueries,
		Fn:              agg.Sum,
		Eta:             1,
		Factors:         true,
		Shards:          shards,
		Workers:         addrs,
		CheckpointEvery: 4,
		Dial: func(a string) (net.Conn, error) {
			if refuse.Load() && a == addrs[1] {
				return nil, errors.New("injected dial refusal")
			}
			return net.Dial("tcp", a)
		},
	}, sink)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	drive(r, events, chunk, func(i int) {
		if i != 4 {
			return
		}
		// New dials to worker 1 refused; its existing sessions (shards
		// 1 and 3) stay healthy.
		refuse.Store(true)
		if err := r.Rebalance(0, addrs[1]); err == nil {
			t.Fatal("Rebalance onto a refusing target succeeded")
		}
		topo := r.Topology()
		if !topo.Workers[1].Live {
			t.Fatalf("refused dial retired a worker with healthy sessions: %+v", topo)
		}
		if got := topo.Workers[1].Shards; len(got) != 2 {
			t.Fatalf("worker 1 lost its shards on a refused dial: %+v", topo)
		}
		refuse.Store(false)
		// A refused target hosting nothing is retired instead.
		if err := r.AddWorker(deadAddr); err != nil {
			t.Fatalf("AddWorker: %v", err)
		}
		if err := r.Rebalance(0, deadAddr); err == nil {
			t.Fatal("Rebalance onto a dead address succeeded")
		}
		for _, w := range r.Topology().Workers {
			if w.Addr == deadAddr && w.Live {
				t.Fatalf("empty dead worker left live: %+v", w)
			}
		}
	})
	if err := r.Err(); err != nil {
		t.Fatalf("router: %v", err)
	}
	topo := r.Topology()
	if topo.Failovers != 0 {
		t.Fatalf("refused rebalance dials caused failovers: %+v", topo)
	}
	assertSameResults(t, sink.Results, want)
}

// TestRouterCompactsWithoutWatermark: a pipeline that ingests and
// barriers but never Advances must still compact its replay journals
// (a snapshot needs no cut point), keep the journaled backlog bounded,
// and stay byte-identical through a worker kill replayed from those
// watermark-less checkpoints.
func TestRouterCompactsWithoutWatermark(t *testing.T) {
	events := genEvents(613, 5000, 40)
	const chunk = 250
	const shards = 4
	// Reference driven with the same Advance-free cadence.
	mp := refPlan(t, intSum)
	refSink := &stream.CollectingSink{}
	ref, err := parallel.New(mp.Combined, refSink, shards)
	if err != nil {
		t.Fatalf("parallel.New: %v", err)
	}
	ref.SetOrderedDrain(true)
	for off := 0; off < len(events); off += chunk {
		ref.Process(events[off : off+chunk])
		ref.Barrier()
	}
	ref.Close()
	want := refSink.Results

	addrs := make([]string, 2)
	workers := make([]*shardworker.Worker, 2)
	for i := range addrs {
		addrs[i], workers[i] = startWorker(t)
	}
	r, sink := newRouter(t, intSum, shards, addrs, 2)
	for i, off := 0, 0; off < len(events); i, off = i+1, off+chunk {
		r.Process(events[off : off+chunk])
		r.Barrier()
		// Compaction runs every 2 barriers, so at most 2 chunks of
		// events may sit journaled across all shards.
		if j := r.Topology().JournaledEvents; j > 2*chunk {
			t.Fatalf("chunk %d: %d journaled events without a watermark (journals not compacting)", i, j)
		}
		if i == 12 {
			workers[0].Close() // replay must come from watermark-less checkpoints
		}
	}
	r.Close()
	if err := r.Err(); err != nil {
		t.Fatalf("router: %v", err)
	}
	topo := r.Topology()
	if topo.Failovers == 0 {
		t.Fatalf("kill did not register a failover: %+v", topo)
	}
	if len(topo.ShedShards) != 0 {
		t.Fatalf("shards shed despite a live worker: %+v", topo)
	}
	assertSameResults(t, sink.Results, want)
}

// TestRouterShedTypedError: when the last worker dies, shards shed with
// the typed error and the router keeps functioning (degraded), rather
// than poisoning or panicking.
func TestRouterShedTypedError(t *testing.T) {
	events := genEvents(5, 1000, 30)
	addr, w := startWorker(t)
	r, _ := newRouter(t, intSum, 4, []string{addr}, 4)
	r.Process(events[:500])
	r.Advance(events[499].Time)
	r.Barrier()
	w.Close()
	// First post-kill round: writes may still land in kernel buffers,
	// but the barrier read detects the death and sheds.
	r.Process(events[500:750])
	r.Advance(events[749].Time)
	r.Barrier()
	if err := r.Err(); err != nil {
		t.Fatalf("worker death must degrade, not poison: %v", err)
	}
	// Second round: events routed to shed shards are counted dropped.
	r.Process(events[750:])
	r.Advance(events[999].Time)
	r.Barrier()
	err := r.ShedError()
	if err == nil {
		t.Fatal("no shed error after losing the only worker")
	}
	if !errors.Is(err, router.ErrShardDown) {
		t.Fatalf("shed error %v does not wrap ErrShardDown", err)
	}
	var sde *router.ShardDownError
	if !errors.As(err, &sde) {
		t.Fatalf("shed error %T is not a *ShardDownError", err)
	}
	if sde.Addr != addr {
		t.Fatalf("ShardDownError.Addr = %q, want %q", sde.Addr, addr)
	}
	topo := r.Topology()
	if len(topo.ShedShards) != 4 {
		t.Fatalf("expected all 4 shards shed, topology %+v", topo)
	}
	if topo.ShedEvents == 0 {
		t.Fatal("shed events not counted")
	}
	// Recovery path: a fresh worker cannot resurrect shed shards (their
	// journals are gone), but the router must not crash handling it.
	addr2, _ := startWorker(t)
	if err := r.AddWorker(addr2); err != nil {
		t.Fatalf("AddWorker: %v", err)
	}
	if err := r.Rebalance(0, addr2); !errors.Is(err, router.ErrShardDown) {
		t.Fatalf("Rebalance of shed shard: err = %v, want ErrShardDown", err)
	}
	r.Close()
}

// TestRouterScaleOutIn rebalances mid-stream — scale-out onto a worker
// added after start, then drain it back out — without disturbing the
// output stream.
func TestRouterScaleOutIn(t *testing.T) {
	const chunk = 256
	const shards = 7
	rng := rand.New(rand.NewSource(9901))
	for _, ld := range moveLoads {
		t.Run(ld.name, func(t *testing.T) {
			events := ld.events(99, 6000, 50)
			out, in := chunkAt(rng, len(events), chunk), chunkAt(rng, len(events), chunk)
			if out > in {
				out, in = in, out
			}
			t.Logf("scale out after chunk %d, in after chunk %d, of %d events", out, in, len(events))
			want, wantUpdates := reference(t, ld, shards, events, chunk)
			addrs := make([]string, 2)
			for i := range addrs {
				addrs[i], _ = startWorker(t)
			}
			var late string
			r, sink := newRouter(t, ld, shards, addrs, 4)
			drive(r, events, chunk, func(i int) {
				switch i {
				case out: // scale out: add a worker and move two shards onto it
					late, _ = startWorker(t)
					if err := r.AddWorker(late); err != nil {
						t.Fatalf("AddWorker: %v", err)
					}
					if err := r.Rebalance(0, late); err != nil {
						t.Fatalf("Rebalance(0): %v", err)
					}
					if err := r.Rebalance(3, late); err != nil {
						t.Fatalf("Rebalance(3): %v", err)
					}
				case in: // scale back in
					if err := r.Drain(late); err != nil {
						t.Fatalf("Drain: %v", err)
					}
				}
			})
			if err := r.Err(); err != nil {
				t.Fatalf("router: %v", err)
			}
			assertSameResults(t, sink.Results, want)
			// A move carries the engine's counters with its state.
			if got := r.TotalUpdates(); got != wantUpdates {
				t.Fatalf("TotalUpdates = %d after the moves, reference %d", got, wantUpdates)
			}
			topo := r.Topology()
			if topo.Rebalances < 2 {
				t.Fatalf("expected at least 2 rebalances, topology %+v", topo)
			}
		})
	}
}

// TestRouterSnapshotParallelInterop proves checkpoint blobs are
// topology-independent: a distributed snapshot restores into the
// in-process engine and an in-process snapshot restores into the
// distributed engine, both continuing byte-identically.
func TestRouterSnapshotParallelInterop(t *testing.T) {
	events := genEvents(2024, 4000, 40)
	const chunk = 256
	const shards = 4
	// The split point must sit on a chunk boundary so both runs share
	// the reference's barrier schedule.
	const half = 2048
	want, _ := reference(t, intSum, shards, events, chunk)

	// Distributed first half → snapshot → in-process second half.
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i], _ = startWorker(t)
	}
	r, sink := newRouter(t, intSum, shards, addrs, 4)
	for off := 0; off < half; off += chunk {
		part := events[off:min(off+chunk, half)]
		r.Process(part)
		r.Advance(part[len(part)-1].Time)
		r.Barrier()
	}
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatalf("router.Snapshot: %v", err)
	}
	routerEvents := r.Events()
	// Tear the distributed epoch down and snip its close-flush rows:
	// the restored runner re-emits those open instances itself.
	preClose := len(sink.Results)
	r.Close()
	sink.Results = sink.Results[:preClose]
	mp := refPlan(t, intSum)
	cont, err := restore(mp.Combined, sink, blob)
	if err != nil {
		t.Fatalf("resuming the router snapshot in process: %v", err)
	}
	cont.SetOrderedDrain(true)
	if cont.Events() != routerEvents {
		t.Fatalf("restored event counter %d, want %d", cont.Events(), routerEvents)
	}
	drive(cont, events[half:], chunk, nil)
	assertSameResults(t, sink.Results, want)

	// In-process first half → snapshot → distributed second half.
	sink2 := &stream.CollectingSink{}
	ref, err := parallel.New(mp.Combined, sink2, shards)
	if err != nil {
		t.Fatalf("parallel.New: %v", err)
	}
	ref.SetOrderedDrain(true)
	for off := 0; off < half; off += chunk {
		part := events[off:min(off+chunk, half)]
		ref.Process(part)
		ref.Advance(part[len(part)-1].Time)
		ref.Barrier()
	}
	blob2, err := ref.Snapshot()
	if err != nil {
		t.Fatalf("parallel.Snapshot: %v", err)
	}
	state, err := parallel.DecodeSnapshot(blob2)
	if err != nil {
		t.Fatalf("parallel.DecodeSnapshot: %v", err)
	}
	restoredEvents := state.Events
	r2, err := router.New(router.Spec{
		Queries: testQueries,
		Fn:      agg.Sum,
		Eta:     1,
		Factors: true,
		Workers: addrs,
		State:   state,
	}, sink2)
	if err != nil {
		t.Fatalf("router.New(snapshots): %v", err)
	}
	if r2.Events() != restoredEvents {
		t.Fatalf("router restored event counter %d, want %d", r2.Events(), restoredEvents)
	}
	drive(r2, events[half:], chunk, nil)
	if err := r2.Err(); err != nil {
		t.Fatalf("restored router: %v", err)
	}
	assertSameResults(t, sink2.Results, want)
}

// TestRouterExportMigratesToParallel: a distributed epoch's canonical
// export resumes in the in-process engine — the re-plan handover works
// across the process boundary.
func TestRouterExportMigratesToParallel(t *testing.T) {
	events := genEvents(311, 3000, 30)
	const chunk = 256
	const shards = 4
	want, _ := reference(t, intSum, shards, events, chunk)
	addrs := []string{""}
	addrs[0], _ = startWorker(t)
	r, sink := newRouter(t, intSum, shards, addrs, 4)
	half := 1536 // chunk boundary
	var horizon int64
	for off := 0; off < half; off += chunk {
		part := events[off : off+chunk]
		r.Process(part)
		horizon = part[len(part)-1].Time
		r.Advance(horizon)
		r.Barrier()
	}
	state, err := r.ExportCanonical(horizon)
	if err != nil {
		t.Fatalf("router.ExportCanonical: %v", err)
	}
	if len(state.Shards) != shards {
		t.Fatalf("%d exports for %d shards", len(state.Shards), shards)
	}
	// Tear down the distributed epoch, snipping its close-flush rows —
	// the migrated runner owns those open instances now.
	preClose := len(sink.Results)
	r.Close()
	sink.Results = sink.Results[:preClose]
	mp := refPlan(t, intSum)
	cont, _, err := parallel.Resume(mp.Combined, sink, shards, state, horizon)
	if err != nil {
		t.Fatalf("parallel.Resume(router exports): %v", err)
	}
	cont.SetOrderedDrain(true)
	drive(cont, events[half:], chunk, nil)
	assertSameResults(t, sink.Results, want)
}

// dyingConn models a worker that dies holding a request: a failingConn
// that arms itself once trigger is set and a control envelope of op has
// been written — that write still goes through, every read after fails.
type dyingConn struct {
	failingConn
	trigger *atomic.Bool
	op      string
}

func (c *dyingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.trigger.Load() && bytes.Contains(p, []byte(`"op":"`+c.op+`"`)) {
		c.armed.Store(true)
	}
	return n, err
}

// TestRouterKillDuringStateFetch kills the hosting worker while the
// router is fetching state from it — after the snapshot (or export)
// request is written, before the reply. The fetch must fail over and
// succeed, and what it returns must be the real thing: the snapshot
// restores into the in-process engine, the export migrates into it, and
// the continued run is byte-identical to the uninterrupted reference.
//
// The snapshot fetch runs under every load — with compaction every 3
// barriers the first request to die holding is the compaction's own, so
// the failover replays from a fetched state and the fetch is asked
// again. The export fetch runs under the integer load only: an export
// enters a plan by folding open parents early, so on order-sensitive
// data it is exact against a reference that re-plans at the same
// horizon (*/migrate_test.go), not against an uninterrupted one.
func TestRouterKillDuringStateFetch(t *testing.T) {
	const chunk = 256
	const shards = 4
	rng := rand.New(rand.NewSource(73306))
	for _, ld := range moveLoads {
		events := ld.events(733, 4000, 40)
		half := chunk * chunkAt(rng, len(events), chunk) // a chunk boundary
		t.Logf("%s: fetch after event %d of %d", ld.name, half, len(events))
		want, wantUpdates := reference(t, ld, shards, events, chunk)
		mp := refPlan(t, ld)
		for _, op := range []string{wire.CtrlSnapshot, wire.CtrlExport} {
			if op == wire.CtrlExport && ld.name != intSum.name {
				continue
			}
			t.Run(ld.name+"/"+op, func(t *testing.T) {
				addrs := make([]string, 2)
				for i := range addrs {
					addrs[i], _ = startWorker(t)
				}
				var trigger atomic.Bool
				sink := &stream.CollectingSink{}
				spec := ld.spec(shards, addrs, 3)
				spec.Dial = func(a string) (net.Conn, error) {
					conn, err := net.Dial("tcp", a)
					if err != nil || a != addrs[0] {
						return conn, err
					}
					return &dyingConn{
						failingConn: failingConn{Conn: conn, armed: new(atomic.Bool)},
						trigger:     &trigger,
						op:          op,
					}, nil
				}
				r, err := router.New(spec, sink)
				if err != nil {
					t.Fatalf("router.New: %v", err)
				}
				var horizon int64
				for off := 0; off < half; off += chunk {
					part := events[off : off+chunk]
					r.Process(part)
					horizon = part[len(part)-1].Time
					r.Advance(horizon)
					r.Barrier()
				}
				trigger.Store(true)
				var resume func() (*parallel.Runner, error)
				if op == wire.CtrlSnapshot {
					blob, err := r.Snapshot()
					if err != nil {
						t.Fatalf("router.Snapshot through worker death: %v", err)
					}
					resume = func() (*parallel.Runner, error) { return restore(mp.Combined, sink, blob) }
				} else {
					state, err := r.ExportCanonical(horizon)
					if err != nil {
						t.Fatalf("router.ExportCanonical through worker death: %v", err)
					}
					resume = func() (*parallel.Runner, error) {
						cont, _, err := parallel.Resume(mp.Combined, sink, shards, state, horizon)
						return cont, err
					}
				}
				if err := r.Err(); err != nil {
					t.Fatalf("router: %v", err)
				}
				topo := r.Topology()
				if topo.Failovers < 2 || topo.Workers[0].Live || len(topo.ShedShards) != 0 {
					t.Fatalf("expected worker 0 retired mid-fetch and its two shards failed over, topology %+v", topo)
				}
				// Tear the distributed epoch down and snip its close-flush
				// rows: the resumed runner owns those open instances now.
				preClose := len(sink.Results)
				r.Close()
				sink.Results = sink.Results[:preClose]
				cont, err := resume()
				if err != nil {
					t.Fatalf("resuming in-process from the fetched state: %v", err)
				}
				cont.SetOrderedDrain(true)
				drive(cont, events[half:], chunk, nil)
				if err := cont.Err(); err != nil {
					t.Fatalf("resumed runner: %v", err)
				}
				assertSameResults(t, sink.Results, want)
				// A snapshot carries the operators' counters; an export
				// describes windows and starts them afresh.
				if got := cont.TotalUpdates(); op == wire.CtrlSnapshot && got != wantUpdates {
					t.Fatalf("TotalUpdates = %d after resuming the snapshot, reference %d", got, wantUpdates)
				}
			})
		}
	}
}

// panicSink panics on every delivery — a hostile user sink.
type panicSink struct{}

func (panicSink) Emit(stream.Result) { panic("sink exploded") }

// TestRouterSurvivesPanickingSink: the router's results reach the sink
// through the runner's ordered drain on the driving goroutine, which
// must recover a sink panic into Err — poison, like a goroutine shard's
// — instead of unwinding it through Barrier or Close.
func TestRouterSurvivesPanickingSink(t *testing.T) {
	events := genEvents(17, 2000, 30)
	addr, _ := startWorker(t)
	r, err := router.New(intSum.spec(4, []string{addr}, 4), panicSink{})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	r.Process(events)
	r.Advance(events[len(events)-1].Time)
	for _, step := range []struct {
		name string
		call func()
	}{{"Barrier", r.Barrier}, {"Close", r.Close}} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s panicked with the sink's panic: %v", step.name, p)
				}
			}()
			step.call()
		}()
		if err := r.Err(); err == nil {
			t.Fatalf("a sink panic must surface via Err after %s", step.name)
		}
	}
}

// TestRouterTopologyShape sanity-checks the stats surface.
func TestRouterTopologyShape(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i], _ = startWorker(t)
	}
	r, _ := newRouter(t, intSum, 4, addrs, 4)
	defer r.Close()
	topo := r.Topology()
	if len(topo.Workers) != 2 {
		t.Fatalf("topology workers: %+v", topo)
	}
	var placed []int
	for _, w := range topo.Workers {
		if !w.Live {
			t.Fatalf("fresh worker not live: %+v", w)
		}
		placed = append(placed, w.Shards...)
	}
	if len(placed) != 4 {
		t.Fatalf("placed shards %v, want all 4", placed)
	}
	if !reflect.DeepEqual(r.Topology(), topo) {
		t.Fatal("Topology not stable across calls")
	}
}
