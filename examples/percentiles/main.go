// Percentiles: latency dashboards over correlated windows with shared
// computation for a holistic aggregate — the Section III-A extension.
//
// An SRE dashboard shows p50/p95/p99 request latency over 1-minute,
// 5-minute, 15-minute and 1-hour tumbling windows. Exact percentiles are
// holistic, so the paper's optimizer would fall back to evaluating every
// window independently from raw events. Mergeable quantile sketches make
// the aggregate algebraic: the factor-window plan computes the 1-minute
// sketches once and the larger windows merge them.
//
// Run with: go run ./examples/percentiles
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"
	"time"

	fw "factorwindows"
)

func main() {
	// One tick = one second; windows of 1, 5, 15 and 60 minutes.
	set, err := fw.NewWindowSet(
		fw.Tumbling(60), fw.Tumbling(300), fw.Tumbling(900), fw.Tumbling(3600))
	if err != nil {
		log.Fatal(err)
	}
	events := latencyStream(2_000_000, 8)

	// RunQuantile runs the plan Optimize picks for the Percentile
	// function; ask it which factor windows that plan keeps.
	opt, err := fw.Optimize(set, fw.Percentile, fw.Options{Factors: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factor windows %v, predicted speedup %.2fx\n\n", opt.FactorWindows, opt.PredictedSpeedup)

	for _, phi := range []float64{0.50, 0.95, 0.99} {
		sink := &fw.CollectingSink{}
		start := time.Now()
		runner, err := fw.RunQuantile(set, fw.QuantileOptions{Phi: phi, Factors: true}, events, sink)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("p%02.0f: %d window results in %v (%.1f M events/s, %d state updates)\n",
			phi*100, len(sink.Results), elapsed.Round(time.Millisecond),
			float64(len(events))/elapsed.Seconds()/1e6, runner.TotalUpdates())
	}

	// Accuracy check: compare one window's sketch answer to the exact
	// percentile computed from raw events. The sketches are the library
	// default size (K = 200 values per compactor level), the one the
	// server and the workers use.
	sink := &fw.CollectingSink{}
	if _, err := fw.RunQuantile(set, fw.QuantileOptions{Phi: 0.99, Factors: true}, events, sink); err != nil {
		log.Fatal(err)
	}
	res := pickResult(sink, fw.Tumbling(3600))
	exact, rankErr := windowAccuracy(events, res, 0.99)
	fmt.Printf("\naccuracy at the default sketch size (K = 200), hour window [%d,%d) key %d:\n", res.Start, res.End, res.Key)
	fmt.Printf("  sketch p99: %8.3f ms   exact p99: %8.3f ms\n", res.Value, exact)
	fmt.Printf("  rank error: %.3f%% (the sketch's guarantee is on rank, not value —\n", 100*rankErr)
	fmt.Printf("  tail values are sparse, so small rank errors can move the value)\n")
}

// latencyStream simulates lognormal request latencies from several
// services, with a latency regression midway through.
func latencyStream(n, services int) []fw.Event {
	r := rand.New(rand.NewSource(3))
	events := make([]fw.Event, 0, n)
	perTick := 256
	for i := 0; i < n; i++ {
		t := int64(i / perTick)
		mu := 2.0
		if i > n/2 {
			mu = 2.4 // deploy made things slower
		}
		lat := math.Exp(r.NormFloat64()*0.7 + mu)
		events = append(events, fw.Event{
			Time: t, Key: uint64(r.Intn(services)), Value: lat,
		})
	}
	return events
}

func pickResult(sink *fw.CollectingSink, w fw.Window) fw.Result {
	for _, res := range sink.Sorted() {
		if res.W == w && res.Start > 0 {
			return res
		}
	}
	log.Fatal("no result for the hour window")
	return fw.Result{}
}

// windowAccuracy returns the exact phi-percentile of the window's data
// (same rank definition as the sketch: value at rank ceil(phi·n)) and the
// normalized rank error of the sketch's answer.
func windowAccuracy(events []fw.Event, res fw.Result, phi float64) (exact, rankErr float64) {
	var vals []float64
	for _, e := range events {
		if e.Key == res.Key && e.Time >= res.Start && e.Time < res.End {
			vals = append(vals, e.Value)
		}
	}
	if len(vals) == 0 {
		return math.NaN(), math.NaN()
	}
	sort.Float64s(vals)
	idx := int(math.Ceil(phi*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	exact = vals[idx]
	rank := sort.SearchFloat64s(vals, res.Value)
	for rank < len(vals) && vals[rank] <= res.Value {
		rank++
	}
	rankErr = math.Abs(float64(rank)-phi*float64(len(vals))) / float64(len(vals))
	return exact, rankErr
}
