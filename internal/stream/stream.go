// Package stream defines the event model shared by the execution engine,
// the slicing baseline and the workload generators: timestamped keyed
// events, window results, and result sinks.
//
// Time is an integer tick count. An event at tick t is treated by window
// assignment as the unit interval [t, t+1), matching the left-closed
// right-open interval representation of Section II. Streams are in-order:
// event times are non-decreasing, which is the paper's setting (steady
// ingestion rate, no disorder).
package stream

import (
	"fmt"
	"sort"

	"factorwindows/internal/window"
)

// Event is one input record: a reading Value for device Key at tick Time.
type Event struct {
	Time  int64
	Key   uint64
	Value float64
}

// Result is one window-aggregate output row: the aggregate Value for Key
// over the window instance [Start, End) of window W.
type Result struct {
	W     window.Window
	Start int64
	End   int64
	Key   uint64
	Value float64
}

// String renders the result in a stable, human-readable form.
func (r Result) String() string {
	return fmt.Sprintf("%v[%d,%d) key=%d -> %g", r.W, r.Start, r.End, r.Key, r.Value)
}

// Sink consumes window results.
type Sink interface {
	Emit(Result)
}

// BatchSink is the optional row-batch extension of Sink: the slicing
// and sliding baselines, which assemble []Result batches, probe for it
// (EmitAll) and deliver a whole batch in one call, and EmitRun's
// fallback hands a run's rows to it in one call. The engine and the
// serving path speak RunSink instead (run.go). The slice is only valid
// for the duration of the call — implementations must copy what they
// retain.
type BatchSink interface {
	Sink
	EmitBatch([]Result)
}

// EmitAll delivers rs through s, using one EmitBatch call when s
// implements BatchSink and falling back to per-result Emit otherwise.
func EmitAll(s Sink, rs []Result) {
	if len(rs) == 0 {
		return
	}
	if bs, ok := s.(BatchSink); ok {
		bs.EmitBatch(rs)
		return
	}
	for _, r := range rs {
		s.Emit(r)
	}
}

// CountingSink discards results but counts them; benchmark runs use it so
// result storage does not distort throughput.
type CountingSink struct {
	N int64
}

// Emit implements Sink.
func (s *CountingSink) Emit(Result) { s.N++ }

// EmitBatch implements BatchSink.
func (s *CountingSink) EmitBatch(rs []Result) { s.N += int64(len(rs)) }

// CollectingSink stores every result; correctness tests use it.
type CollectingSink struct {
	Results []Result
}

// Emit implements Sink.
func (s *CollectingSink) Emit(r Result) { s.Results = append(s.Results, r) }

// EmitBatch implements BatchSink.
func (s *CollectingSink) EmitBatch(rs []Result) { s.Results = append(s.Results, rs...) }

// Sorted returns the collected results in canonical order: by window,
// start, then key. It sorts in place and returns the slice.
func (s *CollectingSink) Sorted() []Result {
	SortResults(s.Results)
	return s.Results
}

// SortResults orders results canonically (window range, slide, start,
// key); used to compare outputs of different plans for equality.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		switch {
		case a.W.Range != b.W.Range:
			return a.W.Range < b.W.Range
		case a.W.Slide != b.W.Slide:
			return a.W.Slide < b.W.Slide
		case a.Start != b.Start:
			return a.Start < b.Start
		default:
			return a.Key < b.Key
		}
	})
}

// Validate checks that events are in non-decreasing time order with
// non-negative timestamps, the engine's input contract.
func Validate(events []Event) error {
	last := int64(-1 << 62)
	for i, e := range events {
		if e.Time < 0 {
			return fmt.Errorf("stream: event %d has negative time %d", i, e.Time)
		}
		if e.Time < last {
			return fmt.Errorf("stream: event %d out of order (%d after %d)", i, e.Time, last)
		}
		last = e.Time
	}
	return nil
}
