package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/router"
	"factorwindows/internal/shardworker"
	"factorwindows/internal/stream"
	"factorwindows/internal/workload"
)

// The distributed serving property: a server executing on fwworker
// processes must be client-indistinguishable from the single-process
// server — byte-identical NDJSON and binary result streams (sequence
// numbers included) for the same ingest script — across shard/worker
// geometries, elastic topology changes mid-stream, and worker death.

// startShardWorkers launches n in-process workers on loopback
// listeners and returns their dial addresses alongside the workers
// (for tests that kill one mid-stream).
func startShardWorkers(t testing.TB, n int) ([]string, []*shardworker.Worker) {
	t.Helper()
	addrs := make([]string, n)
	ws := make([]*shardworker.Worker, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := shardworker.New()
		go w.Serve(ln)
		t.Cleanup(w.Close)
		addrs[i] = ln.Addr().String()
		ws[i] = w
	}
	return addrs, ws
}

// distBatches builds the deterministic ingest script: seeded batches of
// non-decreasing ticks over a small key space, closed by one far-future
// sentinel event that flushes every completed window.
func distBatches(seed int64, batches, per int) [][]stream.Event {
	rng := rand.New(rand.NewSource(seed))
	tick := int64(0)
	out := make([][]stream.Event, 0, batches+1)
	for b := 0; b < batches; b++ {
		batch := make([]stream.Event, per)
		for i := range batch {
			tick += int64(rng.Intn(3))
			batch[i] = stream.Event{Time: tick, Key: uint64(rng.Intn(6)), Value: float64(rng.Intn(100))}
		}
		out = append(out, batch)
	}
	out = append(out, []stream.Event{{Time: tick + (1 << 16), Key: 0, Value: 0}})
	return out
}

// Two queries sharing windows so the joint plan has factor structure.
var distQueries = []string{
	`SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(
		Window('16t', TumblingWindow(tick, 16)), Window('12s6', HoppingWindow(tick, 12, 6)))`,
	`SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(HoppingWindow(tick, 24, 8))`,
}

// nestedDistQueries is the same two-query shape over chained tumbling
// windows (T20 feeds T40 feeds T80), so at any topology change some
// parent instance is open over state its children have not seen.
func nestedDistQueries(aggregate string) []string {
	return []string{
		`SELECT DeviceID, ` + aggregate + ` FROM In GROUP BY DeviceID, Windows(
			TumblingWindow(tick, 20), TumblingWindow(tick, 40))`,
		`SELECT DeviceID, ` + aggregate + ` FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 80))`,
	}
}

// distLoad is one input the distributed suites run under: a query pair
// and the ingest script generator. The integer load is the one they
// started with; the other two are order-sensitive
// (workload.OrderSensitive) — float sums that round differently when
// regrouped, and quantile sketches holding ≥ 4·k values per key per
// instance — and catch a state move that is correct only up to
// reassociation.
type distLoad struct {
	name    string
	queries []string
	// keys/perTick shape the order-sensitive stream and ticks fixes its
	// length, which the script's batches split evenly; perTick 0 selects
	// the integer script.
	keys, perTick, ticks int
}

var distLoads = []distLoad{
	{name: "int-sum", queries: distQueries},
	{name: "float-sum", queries: nestedDistQueries("SUM(T)"), keys: 6, perTick: 7, ticks: 256},
	// 8 keys × 40 values per key per tick: 800 = 4·k values per key in
	// every T20 instance, so all three windows' KLL sketches compact. Like
	// the router suites' moveLoads, the script is a fixed 256 ticks, past
	// three T80 instances, so cut, move and kill points land in later
	// instances too.
	{name: "dense-percentile", queries: nestedDistQueries("PERCENTILE(T, 0.5)"), keys: 8, perTick: 320, ticks: 256},
}

// batches builds the load's deterministic ingest script — distBatches
// for the integer load (per events a batch), else the order-sensitive
// stream cut into the same number of batches and closed by the same
// far-future sentinel.
func (l distLoad) batches(seed int64, batches, per int) [][]stream.Event {
	if l.perTick == 0 {
		return distBatches(seed, batches, per)
	}
	per = l.ticks * l.perTick / batches
	events := workload.OrderSensitive(workload.StreamConfig{
		Events: batches * per, Keys: l.keys, EventsPerTick: l.perTick, Seed: seed,
	})
	out := make([][]stream.Event, 0, batches+1)
	for off := 0; off < len(events); off += per {
		out = append(out, events[off:off+per])
	}
	return append(out, []stream.Event{{Time: events[len(events)-1].Time + (1 << 16)}})
}

// cutAt draws a batch index from rng over the whole of a script built
// by batches: past the first batch and before the closing sentinel.
func cutAt(rng *rand.Rand, script [][]stream.Event) int {
	return 1 + rng.Intn(len(script)-2)
}

func registerDistQueries(t *testing.T, h http.Handler, queries []string) {
	t.Helper()
	for i, q := range queries {
		rw := httptest.NewRecorder()
		req := httptest.NewRequest("POST", fmt.Sprintf("/queries?id=q%d", i+1), strings.NewReader(q))
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusCreated {
			t.Fatalf("register q%d: %d %s", i+1, rw.Code, rw.Body)
		}
	}
}

// playDist ingests batches[from:], invoking between (when non-nil)
// before each batch so tests can mutate topology or kill workers at
// fixed script offsets.
func playDist(t *testing.T, s *Server, batches [][]stream.Event, from int, between func(i int)) {
	t.Helper()
	for i := from; i < len(batches); i++ {
		if between != nil {
			between(i)
		}
		if _, err := s.Ingest(batches[i]); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
	}
}

// collectStreams closes the server and drains both result-stream
// encodings for every query. Byte equality of these maps is the
// distributed equivalence property: it covers row content, order, and
// the sequence numbers both encodings carry.
func collectStreams(t *testing.T, s *Server, h http.Handler) map[string][]byte {
	t.Helper()
	s.Close()
	out := map[string][]byte{}
	for _, id := range []string{"q1", "q2"} {
		out["ndjson:"+id] = drainStream(t, h, id, "")
		out["bin:"+id] = drainStream(t, h, id, ContentTypeFrame)
	}
	return out
}

// runDistScript runs the whole script on a fresh server and returns
// its drained streams.
func runDistScript(t *testing.T, cfg Config, queries []string, batches [][]stream.Event, between func(i int)) map[string][]byte {
	t.Helper()
	s := New(cfg)
	defer s.Close()
	h := s.Handler()
	registerDistQueries(t, h, queries)
	playDist(t, s, batches, 0, between)
	return collectStreams(t, s, h)
}

func assertSameStreams(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(want["ndjson:q1"]) == 0 || len(want["bin:q1"]) == 0 {
		t.Fatal("reference produced no results; the property is vacuous")
	}
	for key, wantBytes := range want {
		if !bytes.Equal(got[key], wantBytes) {
			t.Errorf("%s: distributed stream differs from reference (%d vs %d bytes)",
				key, len(got[key]), len(wantBytes))
		}
	}
}

// TestDistributedServerEquivalence is the headline property over the
// geometry grid: random window workload × shards 1/4/7 × workers 1/2/4,
// every distributed run byte-identical to the single-process server.
func TestDistributedServerEquivalence(t *testing.T) {
	for _, ld := range distLoads {
		batches := ld.batches(17, 12, 150)
		for _, shards := range []int{1, 4, 7} {
			ref := runDistScript(t, Config{Shards: shards, ResultBuffer: 1 << 12}, ld.queries, batches, nil)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/workers=%d", ld.name, shards, workers), func(t *testing.T) {
					addrs, _ := startShardWorkers(t, workers)
					got := runDistScript(t, Config{
						Shards: shards, ResultBuffer: 1 << 12,
						Workers: addrs, WorkerCheckpointEvery: 4,
					}, ld.queries, batches, nil)
					assertSameStreams(t, got, ref)
				})
			}
		}
	}
}

// TestDistributedServerScaleOutIn grows the topology mid-stream (admit
// a third worker, migrate two shards onto it) and later drains a
// worker — all through POST /topology — without perturbing one byte of
// the result streams, or losing one engine update from /stats: a move
// carries the shard engine's counters with its state.
func TestDistributedServerScaleOutIn(t *testing.T) {
	for _, ld := range distLoads {
		t.Run(ld.name, func(t *testing.T) {
			batches := ld.batches(31, 16, 120)
			ref := runDistScript(t, Config{Shards: 6, ResultBuffer: 1 << 12}, ld.queries, batches, nil)

			addrs, _ := startShardWorkers(t, 3)
			s := New(Config{Shards: 6, ResultBuffer: 1 << 12, Workers: addrs[:2], WorkerCheckpointEvery: 3})
			defer s.Close()
			h := s.Handler()
			registerDistQueries(t, h, ld.queries)
			// topology applies one mutation and checks /stats' engine
			// update counter did not go backwards across it.
			topology := func(body string) {
				before := s.StatsNow().Updates
				postTopology(t, h, body, http.StatusOK)
				if after := s.StatsNow().Updates; after < before || before == 0 {
					t.Fatalf("engine_updates went %d → %d across POST /topology %s", before, after, body)
				}
			}
			playDist(t, s, batches, 0, func(i int) {
				switch i {
				case 5:
					topology(fmt.Sprintf(`{"op":"add-worker","addr":%q}`, addrs[2]))
					topology(fmt.Sprintf(`{"op":"move","shard":0,"addr":%q}`, addrs[2]))
					topology(fmt.Sprintf(`{"op":"move","shard":3,"addr":%q}`, addrs[2]))
				case 12:
					topology(fmt.Sprintf(`{"op":"drain","addr":%q}`, addrs[0]))
				}
			})
			topo := s.TopologyNow()
			if topo == nil || topo.Rebalances < 2 {
				t.Fatalf("topology after scale-out/in: %+v", topo)
			}
			for _, w := range topo.Workers {
				if w.Addr == addrs[0] && (w.Live || len(w.Shards) != 0) {
					t.Fatalf("drained worker still placed: %+v", w)
				}
			}
			assertSameStreams(t, collectStreams(t, s, h), ref)
		})
	}
}

// TestDistributedServerWorkerKill severs one of three workers
// mid-stream: the router replays its journal onto the survivors and
// the client-visible streams stay byte-identical, with the failover
// visible in the topology counters.
func TestDistributedServerWorkerKill(t *testing.T) {
	for _, ld := range distLoads {
		t.Run(ld.name, func(t *testing.T) {
			batches := ld.batches(23, 16, 120)
			ref := runDistScript(t, Config{Shards: 5, ResultBuffer: 1 << 12}, ld.queries, batches, nil)

			addrs, ws := startShardWorkers(t, 3)
			var topo *router.Topology
			s := New(Config{Shards: 5, ResultBuffer: 1 << 12, Workers: addrs, WorkerCheckpointEvery: 3})
			defer s.Close()
			h := s.Handler()
			registerDistQueries(t, h, ld.queries)
			playDist(t, s, batches, 0, func(i int) {
				if i == 9 {
					ws[1].Close()
				}
				if i == len(batches)-1 {
					topo = s.TopologyNow()
				}
			})
			if topo == nil || topo.Failovers == 0 {
				t.Fatalf("kill left no failover trace: %+v", topo)
			}
			if len(topo.ShedShards) != 0 || topo.ShedEvents != 0 {
				t.Fatalf("failover shed instead of recovering: %+v", topo)
			}
			live := 0
			for _, w := range topo.Workers {
				if w.Live {
					live++
				}
			}
			if live != 2 {
				t.Fatalf("%d live workers after killing one of three", live)
			}
			assertSameStreams(t, collectStreams(t, s, h), ref)
		})
	}
}

// TestDistributedCheckpointInterop proves checkpoint portability across
// execution tiers: a mid-stream checkpoint restores onto workers or
// in-process shards interchangeably, and both continuations emit
// byte-identical streams. (A distributed checkpoint restoring onto a
// single process is the scale-to-zero path; the reverse is scale-out
// of an existing deployment.) The checkpoint's batch is drawn from a
// committed seed over the whole script.
func TestDistributedCheckpointInterop(t *testing.T) {
	rng := rand.New(rand.NewSource(4101))
	for _, ld := range distLoads {
		batches := ld.batches(41, 10, 150)
		cut := cutAt(rng, batches)
		t.Run(ld.name, func(t *testing.T) {
			t.Logf("checkpoint after batch %d of %d", cut, len(batches))

			// checkpointAtCut plays the script prefix on a fresh server and
			// captures its checkpoint.
			checkpointAtCut := func(cfg Config) []byte {
				s := New(cfg)
				defer s.Close()
				registerDistQueries(t, s.Handler(), ld.queries)
				playDist(t, s, batches[:cut], 0, nil)
				cp, err := s.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				return cp
			}
			// continueFrom restores a checkpoint on a fresh server, plays the
			// script suffix, and drains the streams the new epoch produced.
			continueFrom := func(cfg Config, cp []byte) map[string][]byte {
				s := New(cfg)
				defer s.Close()
				h := s.Handler()
				if err := s.RestoreCheckpoint(cp); err != nil {
					t.Fatalf("restore: %v", err)
				}
				playDist(t, s, batches, cut, nil)
				return collectStreams(t, s, h)
			}

			single := Config{Shards: 4, ResultBuffer: 1 << 12}
			cpSingle := checkpointAtCut(single)

			addrs, _ := startShardWorkers(t, 2)
			distributed := Config{Shards: 4, ResultBuffer: 1 << 12, Workers: addrs, WorkerCheckpointEvery: 2}
			cpDistributed := checkpointAtCut(distributed)

			want := continueFrom(single, cpSingle)
			assertSameStreams(t, continueFrom(distributed, cpSingle), want)
			assertSameStreams(t, continueFrom(single, cpDistributed), want)
			assertSameStreams(t, continueFrom(distributed, cpDistributed), want)
		})
	}
}

// planShape is the shape of the plan s runs (nil without a pipeline).
func planShape(s *Server) []plan.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipe == nil {
		return nil
	}
	return s.pipe.plan.Combined.Nodes()
}

// otherPlanCheckpoint takes s's checkpoint and flips its Factors flag, so
// a server running the other setting accepts it and rebuilds the other
// plan from its queries, while its shard states still name s's plan. It
// returns the blob and the checkpoint's release horizon.
func otherPlanCheckpoint(t testing.TB, s *Server) ([]byte, int64) {
	t.Helper()
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	cp.Factors = !cp.Factors
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(cp); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), cp.Reorder.Released
}

// TestDistributedCheckpointRefusesOtherPlan: a checkpoint whose shard
// states belong to another plan than the one its queries rebuild to is
// refused alike in both tiers. The states would resume — a re-plan
// canonicalises them into any plan — but a restore promises the same
// plan bit-exact, which engine.Snapshots holds it to before either tier
// builds a shard. So both tiers take the tampered checkpoint's path: an
// error wrapping engine.ErrOtherPlan, the checkpoint's queries live on
// fresh state at its horizon, and from there byte-identical
// continuations.
func TestDistributedCheckpointRefusesOtherPlan(t *testing.T) {
	batches := distBatches(43, 10, 150)
	const half = 5
	src := New(Config{Shards: 4, Factors: true, ResultBuffer: 1 << 12})
	defer src.Close()
	registerDistQueries(t, src.Handler(), distQueries)
	playDist(t, src, batches[:half], 0, nil)
	cp, horizon := otherPlanCheckpoint(t, src)

	addrs, _ := startShardWorkers(t, 2)
	var want map[string][]byte
	for _, cfg := range []Config{
		{Shards: 4, ResultBuffer: 1 << 12},
		{Shards: 4, ResultBuffer: 1 << 12, Workers: addrs, WorkerCheckpointEvery: 2},
	} {
		s := New(cfg)
		h := s.Handler()
		if err := s.RestoreCheckpoint(cp); !errors.Is(err, engine.ErrOtherPlan) {
			s.Close()
			t.Fatalf("workers=%d: restore error = %v, want one wrapping engine.ErrOtherPlan", len(cfg.Workers), err)
		}
		if got := len(s.Queries()); got != len(distQueries) {
			t.Fatalf("workers=%d: %d queries after the refused restore, want %d", len(cfg.Workers), got, len(distQueries))
		}
		if reflect.DeepEqual(planShape(s), planShape(src)) {
			t.Fatalf("workers=%d: the restoring server runs the checkpoint's own plan; the test is vacuous", len(cfg.Workers))
		}
		if rel := s.StatsNow().Released; rel != horizon {
			t.Fatalf("workers=%d: fallback released=%d, checkpoint had %d", len(cfg.Workers), rel, horizon)
		}
		playDist(t, s, batches, half, nil)
		got := collectStreams(t, s, h)
		if want == nil {
			want = got
			continue
		}
		assertSameStreams(t, got, want)
	}
}

// TestDistributedReplanSamePlanBitExact: a re-plan onto the identical
// plan (Replan(0) keeps η, so the optimizer returns the same plan)
// restores every shard's engine instead of canonicalising it, so on the
// order-sensitive loads — float sums that round differently when
// regrouped, compacting quantile sketches — the run stays byte-identical
// to a server that never re-plans, in both tiers. migrated_instances
// still counts what the restore carried.
func TestDistributedReplanSamePlanBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4141))
	addrs, _ := startShardWorkers(t, 2)
	for _, ld := range distLoads[1:] {
		t.Run(ld.name, func(t *testing.T) {
			script := ld.batches(61, 8, 0)
			cut := cutAt(rng, script)
			t.Logf("re-plan before batch %d of %d", cut, len(script))
			want := runDistScript(t, Config{Shards: 4, Factors: true, ResultBuffer: 1 << 14}, ld.queries, script, nil)
			for _, cfg := range []Config{
				{Shards: 4, Factors: true, ResultBuffer: 1 << 14},
				{Shards: 4, Factors: true, ResultBuffer: 1 << 14, Workers: addrs},
			} {
				s := New(cfg)
				h := s.Handler()
				registerDistQueries(t, h, ld.queries)
				playDist(t, s, script, 0, func(i int) {
					if i != cut {
						return
					}
					before := planShape(s)
					if err := s.Replan(0); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(planShape(s), before) {
						t.Fatal("Replan(0) changed the plan; the case is not a same-plan re-plan")
					}
					if s.StatsNow().Migrated == 0 {
						t.Fatalf("workers=%d: the same-plan re-plan carried no instances", len(cfg.Workers))
					}
				})
				assertSameStreams(t, collectStreams(t, s, h), want)
			}
		})
	}
}

// TestDistributedMigratedInstances: registering a query mid-stream
// re-plans onto another plan with open state, and /stats'
// migrated_instances counts the instances handed over identically in
// process and on workers — whose hello acks report what each shard's
// resume handed over. A later re-plan onto the same plan restores, and
// counts what it carried alike too.
func TestDistributedMigratedInstances(t *testing.T) {
	batches := distBatches(47, 8, 150)
	addrs, _ := startShardWorkers(t, 2)
	var want [2]int64
	var wantStreams map[string][]byte
	for _, cfg := range []Config{
		{Shards: 4, ResultBuffer: 1 << 12},
		{Shards: 4, ResultBuffer: 1 << 12, Workers: addrs},
	} {
		s := New(cfg)
		h := s.Handler()
		if _, err := s.Register("q1", distQueries[0]); err != nil {
			t.Fatal(err)
		}
		playDist(t, s, batches[:4], 0, nil)
		before := planShape(s)
		if _, err := s.Register("q2", distQueries[1]); err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(planShape(s), before) {
			t.Fatal("registering q2 kept the plan; the cross-plan handover is not exercised")
		}
		crossPlan := s.StatsNow().Migrated
		playDist(t, s, batches[:6], 4, nil)
		if err := s.Replan(0); err != nil {
			t.Fatal(err)
		}
		playDist(t, s, batches, 6, nil)
		got := [2]int64{crossPlan, s.StatsNow().Migrated - crossPlan}
		streams := collectStreams(t, s, h)
		if wantStreams == nil {
			if got[0] == 0 || got[1] == 0 {
				t.Fatalf("re-plans carried %v instances; the property is vacuous", got)
			}
			want, wantStreams = got, streams
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: migrated_instances by re-plan = %v, in process %v", len(cfg.Workers), got, want)
		}
		assertSameStreams(t, streams, wantStreams)
	}
}

// postTopology POSTs one topology mutation and requires the given
// status.
func postTopology(t *testing.T, h http.Handler, body string, want int) []byte {
	t.Helper()
	rw := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/topology", strings.NewReader(body))
	h.ServeHTTP(rw, req)
	if rw.Code != want {
		t.Fatalf("POST /topology %s: %d %s (want %d)", body, rw.Code, rw.Body, want)
	}
	return rw.Body.Bytes()
}

// TestTopologyEndpointValidation pins the error surface: 409 on
// single-process servers, 400 on malformed ops, 409 for moves with no
// pipeline, and stats carrying the topology document only when
// distributed.
func TestTopologyEndpointValidation(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	h := s.Handler()
	postTopology(t, h, `{"op":"add-worker","addr":"127.0.0.1:1"}`, http.StatusConflict)
	postTopology(t, h, `{"op":"resize"}`, http.StatusBadRequest)
	postTopology(t, h, `not json`, http.StatusBadRequest)
	if st := s.StatsNow(); st.Topology != nil {
		t.Fatalf("single-process stats carry a topology: %+v", st.Topology)
	}

	addrs, _ := startShardWorkers(t, 1)
	d := New(Config{Shards: 2, Workers: addrs})
	defer d.Close()
	dh := d.Handler()
	// No queries yet → no pipeline: moves have nothing to move.
	postTopology(t, dh, `{"op":"move","shard":0,"addr":"x"}`, http.StatusConflict)
	postTopology(t, dh, `{"op":"move","addr":"x"}`, http.StatusBadRequest)
	// The last worker refuses to drain even without a pipeline.
	postTopology(t, dh, fmt.Sprintf(`{"op":"drain","addr":%q}`, addrs[0]), http.StatusConflict)
	postTopology(t, dh, `{"op":"drain","addr":"127.0.0.1:9"}`, http.StatusNotFound)

	registerDistQueries(t, dh, distQueries)
	playDist(t, d, distBatches(7, 2, 50), 0, nil)
	if st := d.StatsNow(); st.Topology == nil || len(st.Topology.Workers) != 1 {
		t.Fatalf("distributed stats topology: %+v", st.Topology)
	}
	postTopology(t, dh, `{"op":"move","shard":99,"addr":"x"}`, http.StatusConflict)
}
