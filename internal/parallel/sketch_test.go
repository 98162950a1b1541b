package parallel

import (
	"fmt"
	"math/rand"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/engine"
	"factorwindows/internal/stream"
)

// TestSketchFnsAcrossShards pins shard-count invariance for the
// sketch-backed aggregates with explicit finalize parameters: keys are
// partitioned whole, so each key's sketch sees the same events in the
// same order regardless of shard count, and the output must be
// bit-identical to a single-core run — for prime and power-of-two shard
// counts alike.
func TestSketchFnsAcrossShards(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	events := make([]stream.Event, 0, 8000)
	tick := int64(0)
	for i := 0; i < 8000; i++ {
		tick += int64(r.Intn(2))
		events = append(events, stream.Event{
			Time: tick, Key: uint64(r.Intn(32)), Value: float64(r.Intn(50)),
		})
	}

	for _, tc := range []struct {
		fn    agg.Fn
		param float64
	}{
		{agg.Percentile, 0.95},
		{agg.Distinct, 0},
		{agg.TopK, 3},
	} {
		p := testPlan(t, tc.fn, true)
		p.Param = tc.param

		single := &stream.CollectingSink{}
		if _, err := engine.Run(p, events, single); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4, 7} {
			multi := &stream.CollectingSink{}
			if _, err := Run(p, events, multi, shards); err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, tc.fn.String(), multi.Sorted(), single.Sorted())
		}
	}
}

// TestDensePercentileAcrossShards is TestSketchFnsAcrossShards on a load
// dense enough to compact: every key gets more than k = 200 values per
// T10 instance, keys join one by one and then come and go, and the store
// recycles each fired instance's sketches for later ones. A compacting
// sketch's answer must be a function of its inputs alone, so the shard
// counts and the single engine, whose arenas recycle different rows for
// a key, agree bit for bit.
func TestDensePercentileAcrossShards(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	var events []stream.Event
	for tick := int64(0); tick < 160; tick++ {
		for key := uint64(0); key < 24; key++ {
			if int64(key)*5 > tick || r.Intn(4) == 0 {
				continue // keys join one by one, then sit ticks out at random
			}
			for i := 0; i < 30; i++ {
				events = append(events, stream.Event{Time: tick, Key: key, Value: r.Float64() * 1000})
			}
		}
	}
	for _, factors := range []bool{false, true} {
		p := testPlan(t, agg.Percentile, factors)
		p.Param = 0.9
		single := &stream.CollectingSink{}
		if _, err := engine.Run(p, events, single); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4, 7} {
			multi := &stream.CollectingSink{}
			if _, err := Run(p, events, multi, shards); err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("factors=%t shards=%d", factors, shards), multi.Sorted(), single.Sorted())
		}
	}
}
