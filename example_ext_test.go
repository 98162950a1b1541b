package factorwindows_test

import (
	"fmt"
	"strings"

	fw "factorwindows"
)

// Sketch-backed MEDIAN shares sub-aggregates across correlated windows;
// below K values per instance the answers are exact.
func ExampleRunQuantile() {
	set, _ := fw.NewWindowSet(fw.Tumbling(4), fw.Tumbling(8))
	var events []fw.Event
	for i := 0; i < 8; i++ {
		events = append(events, fw.Event{Time: int64(i), Key: 1, Value: float64(i + 1)})
	}
	sink := &fw.CollectingSink{}
	if _, err := fw.RunQuantile(set, fw.QuantileOptions{}, events, sink); err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range sink.Sorted() {
		fmt.Printf("%v [%d,%d) median=%v\n", r.W, r.Start, r.End, r.Value)
	}
	// Output:
	// W(4,4) [0,4) median=2
	// W(4,4) [4,8) median=6
	// W(8,8) [0,8) median=4
}

// Plans translate to Apache Flink DataStream jobs, the way the paper's
// Section V-F ports its optimized plans onto Flink.
func ExampleFlink() {
	set, _ := fw.NewWindowSet(fw.Tumbling(20), fw.Tumbling(40))
	opt, _ := fw.Optimize(set, fw.Min, fw.Options{})
	src, _ := fw.Flink(opt.Plan, fw.FlinkOptions{})
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "DataStream<Agg> tumble") {
			fmt.Println(strings.TrimSpace(line))
		}
	}
	// Output:
	// DataStream<Agg> tumble20 = input
	// DataStream<Agg> tumble40 = tumble20
}

// HyperLogLog-backed COUNT DISTINCT shares sub-sketches across windows;
// merging is register-exact, so sharing never changes the estimate.
func ExampleRunDistinct() {
	set, _ := fw.NewWindowSet(fw.Tumbling(50), fw.Tumbling(100))
	var events []fw.Event
	for i := 0; i < 100; i++ {
		events = append(events, fw.Event{Time: int64(i), Key: 1, Value: float64(i % 30)})
	}
	sink := &fw.CollectingSink{}
	if _, err := fw.RunDistinct(set, fw.DistinctOptions{}, events, sink); err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range sink.Sorted() {
		// 30 distinct values cycle through every window instance; the
		// small-range HLL correction makes tiny cardinalities exact.
		fmt.Printf("%v [%d,%d) distinct≈%.0f\n", r.W, r.Start, r.End, r.Value)
	}
	// Output:
	// W(50,50) [0,50) distinct≈30
	// W(50,50) [50,100) distinct≈30
	// W(100,100) [0,100) distinct≈30
}

// The Steiner-pool mode searches the whole factor-window candidate
// universe; on Example 7's window set it finds W(10,10) like Algorithm 3.
func ExampleOptimizeSteiner() {
	set, _ := fw.NewWindowSet(fw.Tumbling(20), fw.Tumbling(30), fw.Tumbling(40))
	opt, _ := fw.OptimizeSteiner(set, fw.Sum, fw.Options{}, 0)
	fmt.Println(opt.FactorWindows)
	fmt.Printf("%.1f\n", opt.PredictedSpeedup)
	// Output:
	// [W(10,10)]
	// 2.4
}
