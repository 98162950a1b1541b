package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"factorwindows/internal/asaql"
	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/reorder"
	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
)

// row is a sequence-free, plan-free normalization of one result, used to
// compare server output against reference executions.
type row struct {
	rng, slide, start, end int64
	key                    uint64
	value                  float64
}

func fromResultRow(r ResultRow) row {
	return row{rng: r.Range, slide: r.Slide, start: r.Start, end: r.End, key: r.Key, value: r.Value}
}

func fromResult(r stream.Result) row {
	return row{rng: r.W.Range, slide: r.W.Slide, start: r.Start, end: r.End, key: r.Key, value: r.Value}
}

func sortRows(rs []row) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		switch {
		case a.rng != b.rng:
			return a.rng < b.rng
		case a.slide != b.slide:
			return a.slide < b.slide
		case a.start != b.start:
			return a.start < b.start
		default:
			return a.key < b.key
		}
	})
}

// naiveReference executes one query stand-alone on the single-core
// engine with the naive (unshared) plan and returns the rows that
// matched the predicate.
func naiveReference(t *testing.T, sql string, events []stream.Event, keep func(row) bool) []row {
	t.Helper()
	q, err := asaql.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	set, err := q.Set()
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.NewOriginal(set, q.Fn)
	if err != nil {
		t.Fatal(err)
	}
	sink := &stream.CollectingSink{}
	if _, err := engine.Run(p, events, sink); err != nil {
		t.Fatal(err)
	}
	var out []row
	for _, r := range sink.Results {
		if rw := fromResult(r); keep(rw) {
			out = append(out, rw)
		}
	}
	sortRows(out)
	return out
}

func serverRows(t *testing.T, s *Server, id string) []row {
	t.Helper()
	rows, missed, err := s.Results(id, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if missed != 0 {
		t.Fatalf("query %s: %d rows evicted; grow ResultBuffer in the test", id, missed)
	}
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = fromResultRow(r)
	}
	sortRows(out)
	return out
}

func equalRows(a, b []row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			// TOPK yields NaN for windows tracking fewer than k values;
			// two NaN rows over the same window agree.
			av, bv := a[i], b[i]
			if math.IsNaN(av.value) && math.IsNaN(bv.value) {
				av.value, bv.value = 0, 0
			}
			if av != bv {
				return false
			}
		}
	}
	return true
}

// genEvents builds an in-order random stream with integer values, so
// SUM is exact under any merge order.
func genEvents(n, keys int, seed int64) []stream.Event {
	r := rand.New(rand.NewSource(seed))
	events := make([]stream.Event, 0, n)
	tick := int64(0)
	for i := 0; i < n; i++ {
		tick += int64(r.Intn(3))
		events = append(events, stream.Event{
			Time: tick, Key: uint64(r.Intn(5)), Value: float64(r.Intn(100)),
		})
	}
	return events
}

const (
	demoQuery1 = `SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(
		Window('8t', TumblingWindow(tick, 8)), Window('16t', TumblingWindow(tick, 16)))`
	demoQuery2 = `SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(
		HoppingWindow(tick, 12, 6), TumblingWindow(tick, 24))`
)

// TestDemoTwoQueries is the PR's acceptance demo: two ASAQL queries
// registered over one ingested stream return results identical to
// single-core engine execution of each query alone.
func TestDemoTwoQueries(t *testing.T) {
	s := New(Config{Shards: 4, Factors: true})
	defer s.Close()
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("b", demoQuery2); err != nil {
		t.Fatal(err)
	}

	events := genEvents(3000, 5, 1)
	const flushTick = 1 << 20
	events = append(events, stream.Event{Time: flushTick, Key: 0, Value: 0})
	for i := 0; i < len(events); i += 500 {
		end := min(i+500, len(events))
		if _, err := s.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	// Every window instance with end <= flushTick has fired; the
	// sentinel's own windows are open on both sides and excluded.
	complete := func(r row) bool { return r.end <= flushTick }
	for id, sql := range map[string]string{"a": demoQuery1, "b": demoQuery2} {
		want := naiveReference(t, sql, events, complete)
		got := serverRows(t, s, id)
		if len(want) == 0 {
			t.Fatalf("query %s: empty reference", id)
		}
		if !equalRows(got, want) {
			t.Errorf("query %s: server delivered %d rows, engine %d; outputs differ",
				id, len(got), len(want))
		}
	}

	st := s.StatsNow()
	if st.Queries != 2 || st.Ingested != int64(len(events)) || st.EngineEvents != int64(len(events)) {
		t.Fatalf("stats = %+v", st)
	}
	// The rings' footprint is readable off the server: each query's
	// buffered rows sit in runs of a few keys, and /stats sums the bytes.
	var rows, runs int
	for _, qi := range s.Queries() {
		if qi.BufferedRows != int(qi.Delivered-qi.Evicted) || qi.BufferedRuns == 0 || qi.BufferedRuns > qi.BufferedRows {
			t.Fatalf("query %s buffers %d rows in %d runs with %d delivered, %d evicted",
				qi.ID, qi.BufferedRows, qi.BufferedRuns, qi.Delivered, qi.Evicted)
		}
		rows, runs = rows+qi.BufferedRows, runs+qi.BufferedRuns
	}
	if floor := int64(16*rows + runHdrBytes*runs); st.ResultBufferBytes < floor || st.ResultBufferBytes >= int64(56*rows) {
		t.Fatalf("result_buffer_bytes = %d for %d rows in %d runs, want at least %d and under the row form's %d",
			st.ResultBufferBytes, rows, runs, floor, 56*rows)
	}
}

// TestEpochSemantics pins the re-planning contract: a query registered
// mid-stream sees exactly the complete instances that start at or after
// the registration horizon, while the pre-existing query's open windows
// migrate across the re-plan and lose nothing — everything delivered
// stays exact.
func TestEpochSemantics(t *testing.T) {
	s := New(Config{Shards: 3, Factors: true})
	defer s.Close()
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}

	events := genEvents(2000, 5, 7)
	cut := 1000
	if _, err := s.Ingest(events[:cut]); err != nil {
		t.Fatal(err)
	}
	// With bound 0 everything ingested so far is released; the horizon
	// seals at the last released tick, which stays admissible so a run
	// of equal timestamps can straddle the ingest batch boundary.
	boundary := events[cut-1].Time
	if got := s.StatsNow().Released; got != boundary {
		t.Fatalf("released = %d, want %d", got, boundary)
	}

	if _, err := s.Register("b", demoQuery2); err != nil {
		t.Fatal(err)
	}
	const flushTick = 1 << 20
	tail := append(append([]stream.Event(nil), events[cut:]...), stream.Event{Time: flushTick})
	if _, err := s.Ingest(tail); err != nil {
		t.Fatal(err)
	}

	full := append(append([]stream.Event(nil), events...), stream.Event{Time: flushTick})
	wantA := naiveReference(t, demoQuery1, full, func(r row) bool {
		return r.end <= flushTick // zero-gap: a's windows straddling the re-plan migrate
	})
	wantB := naiveReference(t, demoQuery2, full, func(r row) bool {
		return r.end <= flushTick && r.start >= boundary
	})
	if gotA := serverRows(t, s, "a"); !equalRows(gotA, wantA) {
		t.Errorf("query a: %d rows, want %d", len(gotA), len(wantA))
	}
	if gotB := serverRows(t, s, "b"); !equalRows(gotB, wantB) {
		t.Errorf("query b: %d rows, want %d", len(gotB), len(wantB))
	}
	if len(wantB) == 0 {
		t.Fatal("query b reference is empty; boundary too late")
	}
}

// TestReorderedIngest feeds bounded-disorder input and expects the same
// output as the sorted stream.
func TestReorderedIngest(t *testing.T) {
	s := New(Config{Shards: 2, Factors: true, ReorderBound: 16})
	defer s.Close()
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	events := genEvents(1500, 4, 11)
	// Shuffle within blocks of 8 positions: times grow at most 2 per
	// step, so displacement stays under 14 ticks — inside the bound.
	shuffled := append([]stream.Event(nil), events...)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < len(shuffled); i += 8 {
		end := min(i+8, len(shuffled))
		r.Shuffle(end-i, func(a, b int) {
			shuffled[i+a], shuffled[i+b] = shuffled[i+b], shuffled[i+a]
		})
	}
	const flushTick = 1 << 20
	shuffled = append(shuffled, stream.Event{Time: flushTick})
	for i := 0; i < len(shuffled); i += 333 {
		if _, err := s.Ingest(shuffled[i:min(i+333, len(shuffled))]); err != nil {
			t.Fatal(err)
		}
	}
	if late := s.StatsNow().Late; late != 0 {
		t.Fatalf("disorder of < 8 ticks within bound 16 must not drop events; late = %d", late)
	}
	sorted := append(append([]stream.Event(nil), events...), stream.Event{Time: flushTick})
	want := naiveReference(t, demoQuery1, sorted, func(r row) bool { return r.end <= flushTick })
	if got := serverRows(t, s, "a"); !equalRows(got, want) {
		t.Errorf("reordered ingest diverged: %d rows, want %d", len(got), len(want))
	}
}

// TestCheckpointRestore resumes a stream on a fresh server and expects
// the continuation to deliver exactly what the original would have.
func TestCheckpointRestore(t *testing.T) {
	cfg := Config{Shards: 3, Factors: true, ReorderBound: 4}
	s1 := New(cfg)
	defer s1.Close()
	for id, sql := range map[string]string{"a": demoQuery1, "b": demoQuery2} {
		if _, err := s1.Register(id, sql); err != nil {
			t.Fatal(err)
		}
	}
	events := genEvents(2400, 5, 23)
	cut := 1200
	if _, err := s1.Ingest(events[:cut]); err != nil {
		t.Fatal(err)
	}
	data, err := s1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	preA, preB := serverRows(t, s1, "a"), serverRows(t, s1, "b")

	const flushTick = 1 << 20
	tail := append(append([]stream.Event(nil), events[cut:]...), stream.Event{Time: flushTick})
	if _, err := s1.Ingest(tail); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	defer s2.Close()
	if err := s2.RestoreCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Queries()); got != 2 {
		t.Fatalf("restored %d queries", got)
	}
	if _, err := s2.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	// s2's rings only hold post-restore rows; s1's hold the full run.
	for _, id := range []string{"a", "b"} {
		all := serverRows(t, s1, id)
		pre := preA
		if id == "b" {
			pre = preB
		}
		wantPost := diffRows(all, pre)
		got := serverRows(t, s2, id)
		if !equalRows(got, wantPost) {
			t.Errorf("query %s: restored continuation delivered %d rows, original %d",
				id, len(got), len(wantPost))
		}
		if len(wantPost) == 0 {
			t.Fatalf("query %s: empty continuation; test is vacuous", id)
		}
	}

	// A config mismatch must be rejected.
	s3 := New(Config{Shards: 3, Factors: false})
	defer s3.Close()
	if err := s3.RestoreCheckpoint(data); !errors.Is(err, ErrConflict) {
		t.Fatalf("factors mismatch: err = %v", err)
	}
}

// diffRows returns all minus pre (both sorted, pre a prefix-subset).
func diffRows(all, pre []row) []row {
	seen := make(map[row]int, len(pre))
	for _, r := range pre {
		seen[r]++
	}
	var out []row
	for _, r := range all {
		if seen[r] > 0 {
			seen[r]--
			continue
		}
		out = append(out, r)
	}
	return out
}

// TestEmptySetPreservesHorizon: unregistering the last query must not
// unseal the release horizon — a query registered afterwards may not
// receive partial values for windows straddling the gap.
func TestEmptySetPreservesHorizon(t *testing.T) {
	s := New(Config{Shards: 2, Factors: true})
	defer s.Close()
	const sql = `SELECT k, SUM(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 16))`
	if _, err := s.Register("a", sql); err != nil {
		t.Fatal(err)
	}
	events := make([]stream.Event, 0, 128)
	for tick := int64(0); tick < 128; tick++ {
		events = append(events, stream.Event{Time: tick, Key: 0, Value: 1})
	}
	if _, err := s.Ingest(events[:100]); err != nil { // released horizon: 100
		t.Fatal(err)
	}
	if err := s.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("b", sql); err != nil {
		t.Fatal(err)
	}
	const flushTick = 1 << 20
	tail := append(append([]stream.Event(nil), events[100:]...), stream.Event{Time: flushTick})
	if _, err := s.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	rows := serverRows(t, s, "b")
	if len(rows) == 0 {
		t.Fatal("no rows delivered")
	}
	for _, r := range rows {
		if r.start < 100 {
			t.Fatalf("window [%d,%d) straddles the unregister gap; value %g would be partial",
				r.start, r.end, r.value)
		}
		if r.start < flushTick && r.value != float64(r.end-r.start) {
			t.Fatalf("window [%d,%d) delivered partial sum %g", r.start, r.end, r.value)
		}
	}
}

// TestEngineFailureContained: an engine-contract violation inside a
// shard (as corrupt restored state produces) must not crash the
// process; ingestion reports ErrEngine persistently until the registry
// changes.
func TestEngineFailureContained(t *testing.T) {
	// factors=false with a lone hopping window keeps a k>1 operator at
	// the plan root, which detects out-of-order input.
	s := New(Config{Shards: 1, Factors: false})
	defer s.Close()
	if _, err := s.Register("a", `SELECT k, SUM(v) FROM s GROUP BY k, Windows(HoppingWindow(tick, 12, 6))`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]stream.Event{{Time: 100, Key: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	// Sabotage: bypass the reorder buffer, as a tampered checkpoint
	// whose restored horizon disagrees with the engine state would.
	s.pipe.runner.Process([]stream.Event{{Time: 0, Key: 0, Value: 1}})

	if _, err := s.Ingest([]stream.Event{{Time: 200, Key: 0, Value: 1}}); !errors.Is(err, ErrEngine) {
		t.Fatalf("ingest after poisoning: %v", err)
	}
	if _, err := s.Ingest([]stream.Event{{Time: 201, Key: 0, Value: 1}}); !errors.Is(err, ErrEngine) {
		t.Fatalf("failure not persistent: %v", err)
	}
	if st := s.StatsNow(); st.Error == "" {
		t.Fatal("stats hide the failure")
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrEngine) {
		t.Fatal("checkpoint of a failed pipeline must error")
	}
	// A registry change rebuilds the pipeline and clears the failure.
	if _, err := s.Register("b", `SELECT k, SUM(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 6))`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]stream.Event{{Time: 205, Key: 0, Value: 1}, {Time: 206, Key: 0, Value: 1}}); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if _, err := s.Ingest([]stream.Event{{Time: 1 << 20, Key: 0, Value: 0}}); err != nil {
		t.Fatal(err)
	}
	if st := s.StatsNow(); st.Error != "" {
		t.Fatalf("stale failure in stats: %s", st.Error)
	}
	// The failure horizon (released 201 when the pipeline died) carries
	// into the recovered epoch: windows straddling it — like hopping
	// [198,210), whose pre-failure ticks are gone — are suppressed, not
	// delivered with partial values.
	for _, id := range []string{"a", "b"} {
		for _, r := range serverRows(t, s, id) {
			if r.start < 201 {
				t.Errorf("query %s delivered straddling window [%d,%d) = %g after recovery",
					id, r.start, r.end, r.value)
			}
		}
	}
	if rows := serverRows(t, s, "a"); len(rows) == 0 {
		t.Fatal("no post-recovery rows; suppression check is vacuous")
	}
}

// TestTamperedCheckpointRejected: a checkpoint whose engine blob is
// garbage must not be installed silently — the restore errors, and the
// server stays serviceable on fresh state.
func TestTamperedCheckpointRejected(t *testing.T) {
	cfg := Config{Shards: 2, Factors: true}
	s1 := New(cfg)
	defer s1.Close()
	if _, err := s1.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest(genEvents(500, 3, 31)); err != nil {
		t.Fatal(err)
	}
	data, err := s1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	cp.Shards[0] = []byte("garbage")
	var tampered bytes.Buffer
	if err := gob.NewEncoder(&tampered).Encode(cp); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	defer s2.Close()
	if err := s2.RestoreCheckpoint(tampered.Bytes()); err == nil {
		t.Fatal("tampered checkpoint accepted")
	}
	// The fallback re-plan keeps the restored queries live on fresh state.
	if got := len(s2.Queries()); got != 1 {
		t.Fatalf("queries after failed restore: %d", got)
	}
	if _, err := s2.Ingest([]stream.Event{{Time: 1, Key: 0, Value: 1}}); err != nil {
		t.Fatalf("server unserviceable after failed restore: %v", err)
	}
	// ...but it must keep the checkpoint's sealed horizon, or windows
	// straddling the restore point would be delivered partially (the
	// t=1 event above is below the horizon and judged late).
	if rel := s2.StatsNow().Released; rel != cp.Reorder.Released {
		t.Fatalf("fallback lost the horizon: released=%d, checkpoint had %d", rel, cp.Reorder.Released)
	}

	// A tampered reorder state (pending event below the sealed horizon)
	// is rejected as well.
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	cp.Reorder.Pending = append(cp.Reorder.Pending, stream.Event{Time: cp.Reorder.Released - 10})
	tampered.Reset()
	if err := gob.NewEncoder(&tampered).Encode(cp); err != nil {
		t.Fatal(err)
	}
	s3 := New(cfg)
	defer s3.Close()
	if err := s3.RestoreCheckpoint(tampered.Bytes()); err == nil {
		t.Fatal("tampered reorder state accepted")
	}

	// A query that Register would reject (WHERE clause) cannot be
	// smuggled in through a checkpoint.
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	cp.Queries[0].SQL = `SELECT k, SUM(v) FROM s WHERE v > 3 GROUP BY k, Windows(TumblingWindow(tick, 8))`
	tampered.Reset()
	if err := gob.NewEncoder(&tampered).Encode(cp); err != nil {
		t.Fatal(err)
	}
	s4 := New(cfg)
	defer s4.Close()
	if err := s4.RestoreCheckpoint(tampered.Bytes()); err == nil {
		t.Fatal("WHERE-laden query smuggled through restore")
	}

	// Disorder settings are part of the snapshot's identity: restoring
	// onto a server with a different bound is a conflict, not a silent
	// flag override.
	s5 := New(Config{Shards: 2, Factors: true, ReorderBound: 50})
	defer s5.Close()
	if err := s5.RestoreCheckpoint(data); !errors.Is(err, ErrConflict) {
		t.Fatalf("reorder-bound mismatch: err = %v", err)
	}
}

func TestRegistrationErrors(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"parse error":   "SELECT FROM nope",
		"where clause":  "SELECT k, SUM(v) FROM s WHERE v > 3 GROUP BY k, Windows(TumblingWindow(tick, 4))",
		"multi agg":     "SELECT k, SUM(v), MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))",
		"holistic":      "SELECT k, MEDIAN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))",
		"mixed fn":      "SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))",
		"duplicate id ": demoQuery2,
	}
	for name, sql := range cases {
		id := ""
		if name == "duplicate id " {
			id = "a"
		}
		if _, err := s.Register(id, sql); err == nil {
			t.Errorf("%s: registration must fail", name)
		}
	}
	if err := s.Unregister("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unregister ghost: %v", err)
	}
	if _, _, err := s.Results("ghost", -1, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("results ghost: %v", err)
	}

	// After the only query leaves, the aggregate function unpins and
	// ingested events are dropped, not executed.
	if err := s.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Ingest([]stream.Event{{Time: 1, Key: 1, Value: 1}})
	if err != nil || st.Dropped != 1 || st.Accepted != 0 {
		t.Fatalf("idle ingest: %+v, %v", st, err)
	}
	if _, err := s.Register("m", "SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))"); err != nil {
		t.Fatalf("fn must unpin when the set empties: %v", err)
	}

	if _, err := s.Ingest([]stream.Event{{Time: -1}}); err == nil {
		t.Fatal("negative time must be rejected")
	}
}

func TestClose(t *testing.T) {
	s := New(Config{Shards: 2})
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Ingest([]stream.Event{{Time: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v", err)
	}
	if _, err := s.Register("b", demoQuery2); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: %v", err)
	}
}

func TestRingEvictionAndCursor(t *testing.T) {
	g := newRing(4)
	for i := 0; i < 10; i++ {
		g.append(stream.Result{Start: int64(i)})
	}
	rows, missed := g.readAfter(-1, 0)
	if missed != 6 || len(rows) != 4 || rows[0].Seq != 6 || rows[3].Seq != 9 {
		t.Fatalf("rows = %+v, missed = %d", rows, missed)
	}
	rows, missed = g.readAfter(7, 0)
	if missed != 0 || len(rows) != 2 || rows[0].Seq != 8 {
		t.Fatalf("cursor read = %+v, %d", rows, missed)
	}
	if rows, _ := g.readAfter(9, 0); rows != nil {
		t.Fatalf("drained cursor returned %+v", rows)
	}
	if rows, _ := g.readAfter(-1, 3); len(rows) != 3 {
		t.Fatalf("limit ignored: %+v", rows)
	}
	delivered, dropped := g.counters()
	if delivered != 10 || dropped != 6 {
		t.Fatalf("counters = %d, %d", delivered, dropped)
	}
	g.closeRing()
	g.append(stream.Result{}) // no-op, must not panic
	if !g.isClosed() {
		t.Fatal("ring must report closed")
	}
	select {
	case <-g.waitCh():
	default:
		t.Fatal("closed ring's waitCh must be ready")
	}
}

func TestGateSuppression(t *testing.T) {
	// A drop-policy late event must not resurrect dropped state: query
	// a's windows straddling b's registration migrate and stay exact
	// (the late event at t=3 is NOT in them), while b's own windows —
	// new to the plan — must not report instances from before the epoch
	// (their pre-epoch events are unrecoverable).
	s := New(Config{Shards: 1, ReorderBound: 0, Policy: reorder.Drop})
	defer s.Close()
	if _, err := s.Register("a", demoQuery1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]stream.Event{{Time: 5, Key: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("b", demoQuery2); err != nil {
		t.Fatal(err)
	}
	st, err := s.Ingest([]stream.Event{{Time: 3, Key: 1, Value: 9}, {Time: 40, Key: 1, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Late != 1 {
		t.Fatalf("late = %d, want 1", st.Late)
	}
	// Query a keeps its straddling windows across the re-plan, with the
	// late event excluded: [0,8) and [0,16) hold only the t=5 event.
	for _, r := range serverRows(t, s, "a") {
		if r.start == 0 && r.value != 2 {
			t.Errorf("query a window [%d,%d) = %g; late event resurrected or state lost",
				r.start, r.end, r.value)
		}
	}
	if rows := serverRows(t, s, "a"); len(rows) == 0 {
		t.Fatal("query a lost its migrated windows")
	}
	// Query b's windows are new at released horizon 6.
	for _, r := range serverRows(t, s, "b") {
		if r.start < 6 {
			t.Errorf("query b delivered pre-epoch window [%d,%d)", r.start, r.end)
		}
	}
}

// ingestReply is the body of a POST /ingest response, success or error.
type ingestReply struct {
	Error string `json:"error"`
	IngestStatus
}

func postIngestBody(t *testing.T, h http.Handler, contentType string, body []byte) (int, ingestReply) {
	t.Helper()
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	var reply ingestReply
	if err := json.Unmarshal(rw.Body.Bytes(), &reply); err != nil {
		t.Fatalf("ingest reply %q: %v", rw.Body, err)
	}
	return rw.Code, reply
}

// TestIngestFallbackErrorsUnchanged pins the decode kernel's contract at
// the HTTP surface: a line the fast path declines is encoding/json's to
// judge, so its status and error string are what they were when every
// line went through json.Unmarshal.
func TestIngestFallbackErrorsUnchanged(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	if _, err := s.Register("q", demoQuery1); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, c := range []struct {
		contentType, body string
		code              int
		err               string
	}{
		{"application/x-ndjson", `{"time":1.5,"key":1,"value":1}`, 400,
			"server: line 1: json: cannot unmarshal number 1.5 into Go struct field jsonEvent.time of type int64"},
		{"application/x-ndjson", "{\"time\":1}\n\n{\"time\":1,\"key\":-1}\n", 400,
			"server: line 3: json: cannot unmarshal number -1 into Go struct field jsonEvent.key of type uint64"},
		{"application/x-ndjson", `{"time":1}x`, 400,
			"server: line 1: invalid character 'x' after top-level value"},
		{"application/x-ndjson", `{"time":1,"value":01}`, 400,
			"server: line 1: invalid character '1' after object key:value pair"},
		{"application/json", `[{"time":1},{"time":x}]`, 400,
			"server: request body: invalid character 'x' looking for beginning of value"},
		{"application/json", `[{"time":1},{"time":2}`, 400,
			"server: request body: unexpected EOF"},
		// Declined by the fast path, accepted by encoding/json.
		{"application/x-ndjson", `{"Time":3,"KEY":4,"value":null,"unit":"C"}`, 200, ""},
		{"application/json", `[{"time":3,"extra":[1,2]},null] trailing`, 200, ""},
	} {
		code, reply := postIngestBody(t, h, c.contentType, []byte(c.body))
		if code != c.code || reply.Error != c.err {
			t.Errorf("%s %s:\n got %d %q\nwant %d %q", c.contentType, c.body, code, reply.Error, c.code, c.err)
		}
	}
}

// TestIngestErrorReportsAppliedChunks: the chunked ingest paths apply a
// body ingestChunk events at a time, so an error past the first chunk
// leaves events applied. The error body must say how many, or a client
// retrying the whole body double-ingests them unknowingly.
func TestIngestErrorReportsAppliedChunks(t *testing.T) {
	events := make([]stream.Event, ingestChunk+10)
	for i := range events {
		events[i] = stream.Event{Time: int64(i), Key: 1, Value: 1}
	}
	var ndjson, csv, frames bytes.Buffer
	if err := streamio.WriteJSONL(&ndjson, events[:ingestChunk]); err != nil {
		t.Fatal(err)
	}
	ndjson.WriteString("{\"time\":oops}\n{\"time\":9000000}\n")
	// A negative time fails Server.Ingest, not the decode, so the
	// buffering codecs reach their second chunk before the error.
	events[ingestChunk+5].Time = -1
	if err := streamio.WriteCSV(&csv, events); err != nil {
		t.Fatal(err)
	}
	if err := streamio.WriteBinary(&frames, events[:ingestChunk]); err != nil {
		t.Fatal(err)
	}
	frames.WriteString("not a frame header")

	for _, c := range []struct {
		name, contentType string
		body              []byte
		errPrefix         string
	}{
		{"ndjson", "application/x-ndjson", ndjson.Bytes(), fmt.Sprintf("server: line %d: invalid character 'o'", ingestChunk+1)},
		{"csv", "text/csv", csv.Bytes(), "server: event 5 has negative time -1"},
		{"frames", ContentTypeFrame, frames.Bytes(), "server: frame 2: "},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{Shards: 1})
			defer s.Close()
			if _, err := s.Register("q", demoQuery1); err != nil {
				t.Fatal(err)
			}
			code, reply := postIngestBody(t, s.Handler(), c.contentType, c.body)
			if code != http.StatusBadRequest || !strings.HasPrefix(reply.Error, c.errPrefix) {
				t.Fatalf("got %d %q, want 400 %q...", code, reply.Error, c.errPrefix)
			}
			if reply.Accepted != ingestChunk {
				t.Errorf("error body reports accepted = %d, want %d", reply.Accepted, ingestChunk)
			}
			if got := s.StatsNow().Ingested; got != int64(reply.Accepted) {
				t.Errorf("/stats ingested = %d, error body accepted = %d", got, reply.Accepted)
			}
		})
	}
}
