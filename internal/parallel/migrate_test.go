package parallel

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// mutedSink drops emissions once muted — the test's stand-in for the
// server's epoch gate, so tearing down a migrated-away runner does not
// double-deliver its open instances.
type mutedSink struct {
	inner stream.Sink
	muted atomic.Bool
}

func (m *mutedSink) Emit(r stream.Result) {
	if !m.muted.Load() {
		m.inner.Emit(r)
	}
}

// TestMigrateShardLocal: hopping between plan variants mid-stream via
// ExportCanonical/Resume at any shard count produces exactly the
// output of an uninterrupted single run — the shard-local handover
// (stable key placement) loses and duplicates nothing, across barriers
// and watermark advances.
func TestMigrateShardLocal(t *testing.T) {
	set := window.MustSet(window.Hopping(8, 4), window.Tumbling(4), window.Tumbling(12))
	variants := make([]*plan.Plan, 0, 3)
	orig, err := plan.NewOriginal(set, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	variants = append(variants, orig)
	for _, factors := range []bool{false, true} {
		res, err := core.Optimize(set, agg.Sum, core.Options{Factors: factors})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.FromGraph(res.Graph, agg.Sum, plan.Factored)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, p)
	}

	r := rand.New(rand.NewSource(41))
	var events []stream.Event
	tick := int64(0)
	for i := 0; i < 900; i++ {
		tick += int64(r.Intn(2))
		events = append(events, stream.Event{Time: tick, Key: uint64(r.Intn(32)), Value: float64(r.Intn(7))})
	}

	normalize := func(rs []stream.Result) []string {
		out := make([]string, len(rs))
		for i, res := range rs {
			out[i] = fmt.Sprint(res)
		}
		sort.Strings(out)
		return out
	}

	ref := &stream.CollectingSink{}
	if _, err := Run(variants[0], events, ref, 1); err != nil {
		t.Fatal(err)
	}
	want := normalize(ref.Results)

	for _, shards := range []int{1, 4, 7} {
		sink := &stream.CollectingSink{}
		epoch := &mutedSink{inner: sink}
		cur, err := New(variants[0], epoch, shards)
		if err != nil {
			t.Fatal(err)
		}
		hop := rand.New(rand.NewSource(int64(shards)))
		for i := 0; i < len(events); {
			j := min(i+1+hop.Intn(200), len(events))
			cur.Process(events[i:j])
			cur.Advance(events[j-1].Time)
			i = j
			if i < len(events) && hop.Intn(2) == 0 {
				horizon := events[i].Time // future events are >= this
				state, err := cur.ExportCanonical(horizon)
				if err != nil {
					t.Fatal(err)
				}
				nextEpoch := &mutedSink{inner: sink}
				next, _, err := Resume(variants[hop.Intn(len(variants))], nextEpoch, 0, state, horizon)
				if err != nil {
					t.Fatal(err)
				}
				if next.Shards() != shards {
					t.Fatalf("migration changed shard count: %d -> %d", shards, next.Shards())
				}
				epoch.muted.Store(true)
				cur.Close()
				cur, epoch = next, nextEpoch
			}
		}
		cur.Close()
		got := normalize(sink.Results)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results across migrations, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: result %d = %s, want %s", shards, i, got[i], want[i])
			}
		}
	}
}
