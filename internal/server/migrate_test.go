package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"factorwindows/internal/stream"
)

// stableQueries are the property tests' long-lived subscribers; their
// result streams must be identical whether or not re-plans happen
// underneath them.
var stableQueries = map[string]map[string]string{
	"SUM": {
		"q1": `SELECT k, SUM(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4), TumblingWindow(tick, 6))`,
		"q2": `SELECT k, SUM(v) FROM s GROUP BY k, Windows(HoppingWindow(tick, 8, 4), TumblingWindow(tick, 12))`,
	},
	"MIN": {
		"q1": `SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4), TumblingWindow(tick, 6))`,
		"q2": `SELECT k, MIN(v) FROM s GROUP BY k, Windows(HoppingWindow(tick, 12, 6))`,
	},
	"STDEV": {
		"q1": `SELECT k, STDEV(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 6), TumblingWindow(tick, 10))`,
		"q2": `SELECT k, STDEV(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`,
	},
}

// auxQueries churn the plan mid-stream; their own results are not
// compared (they are new windows, gated at their registration horizon),
// but registering and unregistering them restructures the shared plan
// under the stable queries.
var auxQueries = map[string][]string{
	"SUM": {
		`SELECT k, SUM(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 8))`,
		`SELECT k, SUM(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 24), HoppingWindow(tick, 6, 2))`,
		`SELECT k, SUM(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 2))`,
	},
	"MIN": {
		`SELECT k, MIN(v) FROM s GROUP BY k, Windows(HoppingWindow(tick, 8, 2))`,
		`SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 18))`,
	},
	"STDEV": {
		`SELECT k, STDEV(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 2))`,
		`SELECT k, STDEV(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 30))`,
	},
}

// TestReplanExactnessProperty is the PR's acceptance property: a run
// with re-plans injected at random epochs — query registrations,
// unregistrations and cost-model re-optimizations (the same code path
// the adaptive trigger takes) — produces identical per-query results to
// an uninterrupted reference run, at shard counts 1, 4 and 7. No window
// instance open across a re-plan is skipped or delivered partially.
func TestReplanExactnessProperty(t *testing.T) {
	const flushTick = 1 << 20
	for fname, queries := range stableQueries {
		for _, shards := range []int{1, 4, 7} {
			for trial := 0; trial < 3; trial++ {
				t.Run(fmt.Sprintf("%s/shards=%d/trial=%d", fname, shards, trial), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(31*shards + trial)))
					events := genEvents(2500, 16, int64(trial+7))
					events = append(events, stream.Event{Time: flushTick})
					// Both runs ingest the exact same batches: with a finite
					// reorder bound, batch boundaries decide which duplicate
					// timestamps are judged late, and that must not differ
					// between the runs being compared.
					var cuts []int
					for i := 0; i < len(events); {
						i = min(i+1+r.Intn(200), len(events))
						cuts = append(cuts, i)
					}

					run := func(churn bool) map[string][]row {
						cr := rand.New(rand.NewSource(int64(1000*shards + trial)))
						s := New(Config{Shards: shards, Factors: true, ResultBuffer: 1 << 16})
						defer s.Close()
						for id, sql := range queries {
							if _, err := s.Register(id, sql); err != nil {
								t.Fatal(err)
							}
						}
						auxLive := false
						i := 0
						for _, j := range cuts {
							if _, err := s.Ingest(events[i:j]); err != nil {
								t.Fatal(err)
							}
							i = j
							if !churn || i >= len(events) {
								continue
							}
							switch cr.Intn(4) {
							case 0: // register an auxiliary query
								if !auxLive {
									aux := auxQueries[fname][cr.Intn(len(auxQueries[fname]))]
									if _, err := s.Register("aux", aux); err != nil {
										t.Fatal(err)
									}
									auxLive = true
								}
							case 1: // unregister it again
								if auxLive {
									if err := s.Unregister("aux"); err != nil {
										t.Fatal(err)
									}
									auxLive = false
								}
							case 2: // cost-model re-optimization (adaptive trigger path)
								if err := s.Replan(int64(1 + cr.Intn(16))); err != nil {
									t.Fatal(err)
								}
							}
						}
						out := make(map[string][]row, len(queries))
						for id := range queries {
							out[id] = serverRows(t, s, id)
						}
						if churn && s.StatsNow().Replans.Manual == 0 && s.StatsNow().Replans.Register == 0 {
							t.Fatal("churn run performed no re-plans; property is vacuous")
						}
						return out
					}

					want := run(false)
					got := run(true)
					for id := range queries {
						if len(want[id]) == 0 {
							t.Fatalf("query %s: empty reference", id)
						}
						if !equalRows(got[id], want[id]) {
							t.Fatalf("query %s: %d rows across re-plans, want %d (results diverged)",
								id, len(got[id]), len(want[id]))
						}
					}
				})
			}
		}
	}
}

// TestAdaptiveTriggerExactness is the acceptance demo for the adaptive
// trigger: a workload whose key cardinality collapses mid-stream (same
// total event rate concentrated on one key) raises the per-key rate η,
// flips the cost model's optimum for {W(6), W(10)} from raw reads to a
// shared factor window, and the server re-plans itself — visibly in
// /stats — while every delivered result stays exact.
func TestAdaptiveTriggerExactness(t *testing.T) {
	const sql = `SELECT k, SUM(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 6), TumblingWindow(tick, 10))`
	s := New(Config{
		Shards: 2, Factors: true,
		Adaptive: true, AdaptiveEpoch: 64, AdaptiveOverpay: 1.01,
	})
	defer s.Close()
	if _, err := s.Register("q", sql); err != nil {
		t.Fatal(err)
	}

	var events []stream.Event
	r := rand.New(rand.NewSource(3))
	// Phase 1: 8 events/tick spread over 8 keys — per-key η = 1.
	for tick := int64(0); tick < 200; tick++ {
		for k := 0; k < 8; k++ {
			events = append(events, stream.Event{Time: tick, Key: uint64(k), Value: float64(r.Intn(10))})
		}
	}
	// Phase 2: the same 8 events/tick, all on one hot key — per-key η = 8.
	for tick := int64(200); tick < 400; tick++ {
		for k := 0; k < 8; k++ {
			events = append(events, stream.Event{Time: tick, Key: 0, Value: float64(r.Intn(10))})
		}
	}
	const flushTick = 1 << 20
	events = append(events, stream.Event{Time: flushTick})

	for i := 0; i < len(events); i += 256 {
		if _, err := s.Ingest(events[i:min(i+256, len(events))]); err != nil {
			t.Fatal(err)
		}
	}

	st := s.StatsNow()
	if st.Replans.Adaptive == 0 {
		t.Fatalf("cardinality shift did not trigger an adaptive re-plan: %+v", st)
	}
	if st.Migrated == 0 {
		t.Fatal("adaptive re-plan migrated no state")
	}
	want := naiveReference(t, sql, events, func(r row) bool { return r.end <= flushTick })
	got := serverRows(t, s, "q")
	if !equalRows(got, want) {
		t.Fatalf("adaptive re-plan changed results: %d rows, want %d", len(got), len(want))
	}
}

// TestCheckpointAcrossMigration pins checkpoint fidelity for migrated
// state at the serving layer: a checkpoint taken while straddling
// instances from a re-plan are still open restores into a server whose
// remaining output matches the unsnapshotted continuation exactly.
func TestCheckpointAcrossMigration(t *testing.T) {
	queries := stableQueries["SUM"]
	events := genEvents(1200, 8, 11)
	const flushTick = 1 << 20
	tail := append([]stream.Event(nil), events[600:]...)
	tail = append(tail, stream.Event{Time: flushTick})

	build := func() *Server {
		s := New(Config{Shards: 3, Factors: true, ResultBuffer: 1 << 16})
		for id, sql := range queries {
			if _, err := s.Register(id, sql); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	s := build()
	defer s.Close()
	if _, err := s.Ingest(events[:600]); err != nil {
		t.Fatal(err)
	}
	// Re-plan onto another plan so the pipeline holds imported
	// straddlers (frozen spans), then checkpoint mid-straddle.
	before := planShape(s)
	if err := s.Replan(4); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(planShape(s), before) {
		t.Fatal("Replan(4) kept the plan; a restore carries no frozen state")
	}
	if st := s.StatsNow(); st.Migrated == 0 {
		t.Fatal("re-plan migrated nothing; checkpoint would not cover frozen state")
	}
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	marks := make(map[string]int64, len(queries))
	for id := range queries {
		rows, _, err := s.Results(id, -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		marks[id] = -1
		if len(rows) > 0 {
			marks[id] = rows[len(rows)-1].Seq
		}
	}

	s2 := New(Config{Shards: 3, Factors: true, ResultBuffer: 1 << 16})
	defer s2.Close()
	if err := s2.RestoreCheckpoint(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	for id := range queries {
		contRows, _, err := s.Results(id, marks[id], 0)
		if err != nil {
			t.Fatal(err)
		}
		cont := make([]row, len(contRows))
		for i, r := range contRows {
			cont[i] = fromResultRow(r)
		}
		sortRows(cont)
		restored := serverRows(t, s2, id)
		if len(cont) == 0 {
			t.Fatalf("query %s: no post-checkpoint rows; comparison is vacuous", id)
		}
		if !equalRows(restored, cont) {
			t.Fatalf("query %s: restored run delivered %d rows, continuation %d (diverged)",
				id, len(restored), len(cont))
		}
	}
}
