package engine

import (
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// TestZeroAllocSteadyState is the columnar-store guarantee: once the key
// table and instance spans are warm, folding events through the engine —
// including window firing, span recycling and sub-aggregate merging in
// factored plans — performs zero heap allocations per event for every
// distributive and algebraic function, and for the sketch-backed
// holistic ones (PERCENTILE, COUNT DISTINCT, TOPK) whose sketch states
// recycle through the span arena and finalize without heap traffic. The
// sink is the serving path's: every fire lands as a run in a
// stream.RunBuffer, drained once per round as the shard tiers do.
func TestZeroAllocSteadyState(t *testing.T) {
	set := window.MustSet(window.Tumbling(20), window.Tumbling(30), window.Tumbling(40))
	for _, fn := range []agg.Fn{agg.Sum, agg.Count, agg.Min, agg.Max, agg.Avg, agg.StdDev,
		agg.Percentile, agg.Distinct, agg.TopK} {
		for _, factored := range []bool{false, true} {
			name := fn.String()
			if factored {
				name += "/factored"
			} else {
				name += "/original"
			}
			t.Run(name, func(t *testing.T) {
				var p *plan.Plan
				var err error
				if factored {
					res, oerr := core.Optimize(set, fn, core.Options{Factors: true})
					if oerr != nil {
						t.Fatal(oerr)
					}
					p, err = plan.FromGraph(res.Graph, fn, plan.Factored)
				} else {
					p, err = plan.NewOriginal(set, fn)
				}
				if err != nil {
					t.Fatal(err)
				}
				p.Param = agg.DefaultParam(fn)
				var buf stream.RunBuffer
				var drained stream.CountingSink
				r, err := New(p, &buf)
				if err != nil {
					t.Fatal(err)
				}
				// Sketch columns: keep the per-key value domain under the
				// top-k capacity so steady state recycles counters instead
				// of churning them; quantile stays below K per instance, so
				// warm level-0 buffers absorb every Add.
				mod := int64(97)
				if fn == agg.TopK {
					mod = 31
				}
				// Batches of 4 keys × 30 ticks; each AllocsPerRun round
				// continues the stream in time order and rolls every
				// window (slides 20/30/40 < 30-tick batches), so firing,
				// span recycling and merge paths all stay on the
				// measured path.
				tick := int64(0)
				batch := make([]stream.Event, 0, 120)
				nextBatch := func() []stream.Event {
					batch = batch[:0]
					for i := 0; i < 30; i++ {
						for k := 0; k < 4; k++ {
							batch = append(batch, stream.Event{
								Time: tick, Key: uint64(k), Value: float64((tick + int64(k)) % mod),
							})
						}
						tick++
					}
					return batch
				}
				// Warm up: materialize all keys, spans and scratch.
				for i := 0; i < 20; i++ {
					r.Process(nextBatch())
				}
				const events = 120.0
				// Each measured round also advances the watermark past the
				// batch it just folded, so the egress path — every window
				// boundary fires its instance, batch-finalizes it through
				// FinalizeSpan, emits the run into the buffer, and the buffer
				// drains — runs under the alloc counter, not just the fold
				// path.
				round := func() {
					r.Process(nextBatch())
					r.Advance(tick - 1)
					buf.Drain(&drained)
				}
				round() // the warm-up never drained: size the buffer's columns
				allocs := testing.AllocsPerRun(50, round)
				if perEvent := allocs / events; perEvent != 0 {
					t.Fatalf("%s: %.4f allocs/event (%v allocs per %v-event batch), want 0",
						name, perEvent, allocs, events)
				}
				r.Close()
				if drained.N == 0 {
					t.Fatal("no rows reached the drained sink")
				}
			})
		}
	}
}

// TestEgressBufferCapAfterBurst pins the retention bounds of the result
// path's scratch: after a window instance with far more live keys than
// egressRetain (and than stream.RunRetain) fires, the node's emission
// columns and the run buffer it fired into are released instead of
// pinning burst-sized arenas forever, while steady-state-sized scratch
// is retained.
func TestEgressBufferCapAfterBurst(t *testing.T) {
	set := window.MustSet(window.Tumbling(10))
	p, err := plan.NewOriginal(set, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	var buf stream.RunBuffer
	r, err := New(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: a handful of keys, windows firing.
	small := make([]stream.Event, 0, 64)
	for tick := int64(0); tick < 40; tick++ {
		for k := uint64(0); k < 4; k++ {
			small = append(small, stream.Event{Time: tick, Key: k, Value: 1})
		}
	}
	r.Process(small)
	n := r.roots[0]
	if cap(n.keyBuf) == 0 || cap(n.finBuf) == 0 {
		t.Fatal("steady-state fire should retain its key and value columns")
	}
	buf.Reset()
	// Burst: one instance with more live keys than either bound, then
	// fire it (the watermark has to reach its end tick, 50).
	const keys = stream.RunRetain + 1
	if keys < 3*egressRetain {
		t.Fatalf("burst of %d keys does not exceed 3×egressRetain", keys)
	}
	burst := make([]stream.Event, 0, keys)
	for k := 0; k < keys; k++ {
		burst = append(burst, stream.Event{Time: 40, Key: uint64(k), Value: 1})
	}
	r.Process(burst)
	buf.Reset() // the burst's first event fired the last small instance
	r.Advance(50)
	for _, c := range []int{cap(n.keyBuf), cap(n.finBuf), cap(n.liveBuf)} {
		if c > egressRetain {
			t.Fatalf("burst fire retained %d-row scratch, cap is %d", c, egressRetain)
		}
	}
	if buf.Rows() != keys {
		t.Fatalf("burst fired %d rows into the buffer, want %d", buf.Rows(), keys)
	}
	var sink stream.CollectingSink
	buf.Drain(&sink)
	if len(sink.Results) != keys {
		t.Fatalf("drained %d rows, want %d", len(sink.Results), keys)
	}
	// The drained buffer must have let its burst-sized columns go: a
	// steady-state run appended now sizes them afresh.
	buf.Emit(stream.Result{Key: 1})
	if run := buf.Run(0); cap(run.Keys) > stream.RunRetain || cap(run.Vals) > stream.RunRetain {
		t.Fatalf("drained buffer kept %d-row columns, cap is %d", cap(run.Keys), stream.RunRetain)
	}
	r.Close()
}
