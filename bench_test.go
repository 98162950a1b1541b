// Benchmarks regenerating the paper's evaluation. One Benchmark per
// table/figure runs the corresponding harness experiment and prints the
// same rows the paper reports (on the first iteration only). Dataset
// sizes are scaled down so the full suite completes in minutes; use
// cmd/fwbench -events to reproduce at Synthetic-10M scale.
//
// Micro-benchmarks at the bottom measure the engine, the optimizer and
// the slicing baseline in isolation, including the ablations called out
// in DESIGN.md.
package factorwindows

import (
	"io"
	"math/big"
	"math/rand"
	"os"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/harness"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/plan"
	"factorwindows/internal/reorder"
	"factorwindows/internal/slicing"
	"factorwindows/internal/sliding"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/workload"
)

// benchExperiment runs one named harness experiment per iteration,
// printing its report once.
func benchExperiment(b *testing.B, name string, events int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var out io.Writer = io.Discard
		if i == 0 {
			out = os.Stdout
		}
		cfg := harness.Config{Events: events, Fn: agg.Min, Out: out}
		if err := harness.RunExperiment(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 11: throughput on Synthetic-10M window sets, |W| = 5.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11", 100_000) }

// Table I: throughput boosts on Synthetic-10M, |W| ∈ {5, 10}.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", 60_000) }

// Table II: throughput boosts on Real-32M (DEBS-like), |W| ∈ {5, 10}.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", 60_000) }

// Table III: scalability, |W| ∈ {15, 20}.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", 40_000) }

// Figure 12: optimization overhead vs window-set size.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12", 0) }

// Figure 13: Flink vs Scotty vs factor windows, |W| = 10.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13", 80_000) }

// Figure 14: throughput detail, Synthetic-10M, |W| = 10.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14", 80_000) }

// Figure 15: throughput detail, Synthetic-1M, |W| = 5.
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15", 100_000) }

// Figure 16: throughput detail, Synthetic-1M, |W| = 10.
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16", 100_000) }

// Table IV: throughput boosts, Synthetic-1M.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4", 100_000) }

// Figure 17: throughput detail, Real-32M (DEBS-like), |W| = 5.
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17", 80_000) }

// Figure 18: throughput detail, Real-32M (DEBS-like), |W| = 10.
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18", 80_000) }

// Figure 19: cost-model validation (γC vs γT, Pearson r).
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19", 60_000) }

// Figure 20: scalability detail, |W| = 15.
func BenchmarkFig20(b *testing.B) { benchExperiment(b, "fig20", 40_000) }

// Figure 21: scalability detail, |W| = 20.
func BenchmarkFig21(b *testing.B) { benchExperiment(b, "fig21", 40_000) }

// Figure 22: Flink vs Scotty vs factor windows, |W| = 5.
func BenchmarkFig22(b *testing.B) { benchExperiment(b, "fig22", 80_000) }

// --- Micro-benchmarks -------------------------------------------------

// paperSet is the introduction's Example 1 window set.
func paperSet(b *testing.B) *window.Set {
	b.Helper()
	set, err := window.NewSet(window.Tumbling(20), window.Tumbling(30), window.Tumbling(40))
	if err != nil {
		b.Fatal(err)
	}
	return set
}

func benchEvents(n int) []stream.Event {
	return workload.Synthetic(workload.StreamConfig{Events: n, Keys: 4, EventsPerTick: 4, Seed: 1})
}

// benchEnginePlan measures raw engine throughput for one plan variant.
func benchEnginePlan(b *testing.B, factors bool, kind plan.Kind) {
	set := paperSet(b)
	events := benchEvents(200_000)
	var p *plan.Plan
	var err error
	if kind == plan.Original {
		p, err = plan.NewOriginal(set, agg.Min)
	} else {
		var res *core.Result
		res, err = core.Optimize(set, agg.Min, core.Options{Factors: factors})
		if err != nil {
			b.Fatal(err)
		}
		p, err = plan.FromGraph(res.Graph, agg.Min, kind)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(p, events, &stream.CountingSink{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// Engine throughput on the Example 1 query, per plan variant.
func BenchmarkEngineOriginal(b *testing.B)  { benchEnginePlan(b, false, plan.Original) }
func BenchmarkEngineRewritten(b *testing.B) { benchEnginePlan(b, false, plan.Rewritten) }
func BenchmarkEngineFactored(b *testing.B)  { benchEnginePlan(b, true, plan.Factored) }

// BenchmarkSlicingBaseline measures the Scotty-style slicing executor on
// the same query.
func BenchmarkSlicingBaseline(b *testing.B) {
	set := paperSet(b)
	events := benchEvents(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slicing.Run(set, agg.Min, events, &stream.CountingSink{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// benchOptimize measures optimizer latency for one suite configuration.
func benchOptimize(b *testing.B, n int, tumbling bool, factors bool) {
	suite := harness.Suite{Gen: "R", N: n, Tumbling: tumbling, Runs: 10, Seed: 42}
	sets, err := suite.Sets()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		if _, err := core.Optimize(set, agg.Min, core.Options{
			Factors: factors, Semantics: suite.Semantics(),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Optimizer latency: |W| ∈ {5, 20}, with and without factor search.
func BenchmarkOptimize5NoFactors(b *testing.B)   { benchOptimize(b, 5, true, false) }
func BenchmarkOptimize5Factors(b *testing.B)     { benchOptimize(b, 5, true, true) }
func BenchmarkOptimize20Factors(b *testing.B)    { benchOptimize(b, 20, true, true) }
func BenchmarkOptimize20HopFactors(b *testing.B) { benchOptimize(b, 20, false, true) }

// BenchmarkAblationSemantics compares Algorithm 5's reduced "partitioned
// by" factor search against the general Algorithm 2 search on the same
// tumbling window sets (MIN supports both), the trade-off Section IV-D
// discusses: Algorithm 5 is faster but may miss candidates.
func BenchmarkAblationSemantics(b *testing.B) {
	suite := harness.Suite{Gen: "R", N: 10, Tumbling: true, Runs: 10, Seed: 42}
	sets, err := suite.Sets()
	if err != nil {
		b.Fatal(err)
	}
	for _, sem := range []agg.Semantics{agg.PartitionedBy, agg.CoveredBy} {
		sem := sem
		b.Run(sem.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set := sets[i%len(sets)]
				if _, err := core.Optimize(set, agg.Min, core.Options{
					Factors: true, Semantics: sem,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSteiner compares Algorithm 3's per-vertex factor
// search against the Steiner-pool mode (insert the whole candidate
// universe, prune what does not pay): optimizer latency on one axis, and
// the achieved plan cost as a reported metric (lower is better). This is
// the gap characterization footnote 3 of the paper leaves as future work.
func BenchmarkAblationSteiner(b *testing.B) {
	suite := harness.Suite{Gen: "R", N: 10, Tumbling: true, Runs: 10, Seed: 42}
	sets, err := suite.Sets()
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		run  func(set *window.Set) (*core.Result, error)
	}{
		{"algorithm3", func(set *window.Set) (*core.Result, error) {
			return core.Optimize(set, agg.Min, core.Options{Factors: true})
		}},
		{"steiner", func(set *window.Set) (*core.Result, error) {
			return core.OptimizeSteiner(set, agg.Min, core.Options{}, 0)
		}},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				set := sets[i%len(sets)]
				res, err := m.run(set)
				if err != nil {
					b.Fatal(err)
				}
				c, _ := new(big.Float).SetInt(res.OptimizedCost).Float64()
				total += c
			}
			b.ReportMetric(total/float64(b.N), "plan-cost")
		})
	}
}

// BenchmarkQuantileSharing measures sketch-backed shared MEDIAN against
// the holistic fallback (every window independent, exact median), the
// Section III-A extension.
func BenchmarkQuantileSharing(b *testing.B) {
	// A deep dashboard-style set: the holistic fallback folds every event
	// into all eight windows, the shared tree folds it once.
	set, err := window.NewSet(
		window.Tumbling(600), window.Tumbling(1200), window.Tumbling(2400),
		window.Tumbling(4800), window.Tumbling(9600), window.Tumbling(1800),
		window.Tumbling(3600), window.Tumbling(7200))
	if err != nil {
		b.Fatal(err)
	}
	events := benchEvents(200_000)
	b.Run("shared-sketch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunQuantile(set, QuantileOptions{Factors: true}, events, &stream.CountingSink{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
	b.Run("holistic-fallback", func(b *testing.B) {
		p, err := plan.NewOriginal(set, agg.Median)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(p, events, &stream.CountingSink{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
}

// BenchmarkDistinctSharing measures HLL-backed shared COUNT DISTINCT
// against independent per-window evaluation (sharing is lossless for
// HLL, so this isolates pure compute savings).
func BenchmarkDistinctSharing(b *testing.B) {
	set, err := window.NewSet(
		window.Tumbling(600), window.Tumbling(1200), window.Tumbling(2400),
		window.Tumbling(4800), window.Tumbling(9600), window.Tumbling(1800),
		window.Tumbling(3600), window.Tumbling(7200))
	if err != nil {
		b.Fatal(err)
	}
	events := benchEvents(200_000)
	b.Run("shared-hll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunDistinct(set, DistinctOptions{Factors: true}, events, &stream.CountingSink{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
	b.Run("independent-hll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range set.Sorted() {
				single := window.MustSet(w)
				if _, err := RunDistinct(single, DistinctOptions{}, events, &stream.CountingSink{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
}

// BenchmarkAblationBatchSize measures engine sensitivity to the Process
// batch size (the paper's engine consumes batched input streams).
func BenchmarkAblationBatchSize(b *testing.B) {
	set := paperSet(b)
	events := benchEvents(200_000)
	res, err := core.Optimize(set, agg.Min, core.Options{Factors: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, agg.Min, plan.Factored)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{64, 1024, 65536} {
		batch := batch
		b.Run(itoa(batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := engine.New(p, &stream.CountingSink{})
				if err != nil {
					b.Fatal(err)
				}
				for off := 0; off < len(events); off += batch {
					end := off + batch
					if end > len(events) {
						end = len(events)
					}
					r.Process(events[off:end])
				}
				r.Close()
			}
			b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkSlidingBaseline measures the per-window incremental
// aggregation baseline (Two-Stacks, reference [45]) on the same query.
func BenchmarkSlidingBaseline(b *testing.B) {
	set := paperSet(b)
	events := benchEvents(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sliding.Run(set, agg.Min, events, &stream.CountingSink{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkBaselines prints the four-way executor comparison (extension
// of Section V-F; see EXPERIMENTS.md).
func BenchmarkBaselines(b *testing.B) { benchExperiment(b, "baselines", 60_000) }

// BenchmarkCheckpoint measures snapshot and restore cost with live state.
func BenchmarkCheckpoint(b *testing.B) {
	set := paperSet(b)
	p, err := plan.NewOriginal(set, agg.Min)
	if err != nil {
		b.Fatal(err)
	}
	r, err := engine.New(p, &stream.CountingSink{})
	if err != nil {
		b.Fatal(err)
	}
	r.Process(benchEvents(50_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := r.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Restore(p, &stream.CountingSink{}, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline measures the full ingest path end-to-end, the unit
// the batch-grouped pipeline optimizes as a whole: event batches pushed
// through a reorder buffer into a key-sharded parallel runner executing
// the factored plan, results to a counting sink. The ordered case is the
// steady-state (the reorder buffer's sorted fast path applies); the
// disordered case block-shuffles within the bound so every batch takes
// the heap path.
func BenchmarkPipeline(b *testing.B) {
	set := paperSet(b)
	res, err := core.Optimize(set, agg.Min, core.Options{Factors: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, agg.Min, plan.Factored)
	if err != nil {
		b.Fatal(err)
	}
	ordered := benchEvents(200_000)
	disordered := append([]stream.Event(nil), ordered...)
	rnd := rand.New(rand.NewSource(7))
	const block = 32 // 8 ticks of disorder at 4 events/tick, within bound 16
	for lo := 0; lo < len(disordered); lo += block {
		hi := lo + block
		if hi > len(disordered) {
			hi = len(disordered)
		}
		rnd.Shuffle(hi-lo, func(i, j int) {
			disordered[lo+i], disordered[lo+j] = disordered[lo+j], disordered[lo+i]
		})
	}
	const batch = 512
	run := func(b *testing.B, events []stream.Event) {
		for i := 0; i < b.N; i++ {
			runner, err := parallel.New(p, &stream.CountingSink{}, 4)
			if err != nil {
				b.Fatal(err)
			}
			buf, err := reorder.New(runner, 16, reorder.Drop, nil)
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < len(events); off += batch {
				end := off + batch
				if end > len(events) {
					end = len(events)
				}
				buf.Push(events[off:end])
			}
			buf.Close()
			runner.Close()
		}
		b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	}
	b.Run("ordered", func(b *testing.B) { run(b, ordered) })
	b.Run("disordered", func(b *testing.B) { run(b, disordered) })
}

// BenchmarkEgress measures the result path under key-heavy firing: many
// keys × small windows, so output rows — finalize, result assembly,
// routing, sink delivery — dominate over ingest. Keys round-robin at
// least as slowly as the largest window's span, so every instance emits
// one row per key it saw: ~|W| result rows per input event.
func BenchmarkEgress(b *testing.B) {
	set, err := window.NewSet(window.Tumbling(2), window.Tumbling(4), window.Tumbling(8))
	if err != nil {
		b.Fatal(err)
	}
	events := workload.Synthetic(workload.StreamConfig{
		Events: 200_000, Keys: 2048, EventsPerTick: 256, Seed: 9,
	})
	b.Run("engine", func(b *testing.B) {
		p, err := plan.NewOriginal(set, agg.Min)
		if err != nil {
			b.Fatal(err)
		}
		var rows int64
		for i := 0; i < b.N; i++ {
			sink := &stream.CountingSink{}
			if _, err := engine.Run(p, events, sink); err != nil {
				b.Fatal(err)
			}
			rows = sink.N
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})
	// The multiquery case adds the full serving egress: key-sharded
	// execution, run-buffered sink flushes, and per-run subscriber
	// routing.
	b.Run("multiquery", func(b *testing.B) {
		qs := []multiquery.Query{
			{ID: "q1", Windows: []window.Window{window.Tumbling(2), window.Tumbling(8)}},
			{ID: "q2", Windows: []window.Window{window.Tumbling(4), window.Tumbling(8)}},
		}
		mp, err := multiquery.Optimize(qs, agg.Min, core.Options{Factors: true})
		if err != nil {
			b.Fatal(err)
		}
		const batch = 512
		var rows int64
		for i := 0; i < b.N; i++ {
			rows = 0
			// Shard sinks serialize on the runner's shared-sink lock, so
			// the plain counter is safe.
			sink := mp.RunSink(func(_ []string, run stream.Run) { rows += int64(run.Len()) })
			runner, err := parallel.New(mp.Combined, sink, 4)
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < len(events); off += batch {
				end := off + batch
				if end > len(events) {
					end = len(events)
				}
				runner.Process(events[off:end])
			}
			runner.Close()
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})
}

// BenchmarkReorder measures the disorder-buffer overhead relative to
// direct engine ingestion.
func BenchmarkReorder(b *testing.B) {
	set := paperSet(b)
	events := benchEvents(200_000)
	p, err := plan.NewOriginal(set, agg.Min)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := engine.New(p, &stream.CountingSink{})
		if err != nil {
			b.Fatal(err)
		}
		buf, err := reorder.New(r, 8, reorder.Drop, nil)
		if err != nil {
			b.Fatal(err)
		}
		buf.Push(events)
		buf.Close()
		r.Close()
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkSketchMedian contrasts the two MEDIAN execution paths on one
// high-cardinality workload (many keys, thousands of distinct values
// per window instance): "exact" keeps every raw value per key per
// instance (storeRaw) and sorts at finalize — memory grows with the
// window span — while "sketch" routes the same query through the
// KLL-backed PERCENTILE(v, 0.5) columns, whose per-slot state is
// bounded by the sketch capacity regardless of span. B/op is the
// headline: it demonstrates the bounded-memory claim BENCH_sketch.json
// commits, and benchguard holds both paths to their baselines in CI.
func BenchmarkSketchMedian(b *testing.B) {
	set := window.MustSet(window.Tumbling(16384), window.Hopping(16384, 4096))
	const nEvents = 200_000
	rnd := rand.New(rand.NewSource(17))
	events := make([]stream.Event, nEvents)
	for i := range events {
		events[i] = stream.Event{
			Time:  int64(i / 8),
			Key:   uint64(i % 64),
			Value: float64(rnd.Intn(1 << 20)),
		}
	}
	run := func(b *testing.B, fn agg.Fn, param float64) {
		p, err := plan.NewOriginal(set, fn)
		if err != nil {
			b.Fatal(err)
		}
		p.Param = param
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(p, events, &stream.CountingSink{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	}
	b.Run("exact", func(b *testing.B) { run(b, agg.Median, 0) })
	b.Run("sketch", func(b *testing.B) { run(b, agg.Percentile, 0.5) })
}
