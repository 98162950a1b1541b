package main

import (
	"runtime"
	"slices"
	"time"
)

// loopStats is one timed closed loop against a deployment: one client,
// the next batch sent only after the previous one is visible.
type loopStats struct {
	batches int
	failed  int
	err     error // first failure; the loop stops there

	callMS    []float64 // per batch: time inside POST /ingest
	visibleMS []float64 // per batch: POST start to rows handed to the stream readers

	rows          int64 // streamed during the loop
	mem           runtime.MemStats
	memBefore     runtime.MemStats
	journaledPeak int64
}

func (ls *loopStats) events() int64 { return int64(ls.batches) * batchEvents }

// runLoop drives whole segments until at least dur has passed. Encoding
// the next body happens between operations, outside every timed span.
func runLoop(d *deployment, in *inputs, dur time.Duration) loopStats {
	var ls loopStats
	rows0, _ := d.streamed()
	runtime.ReadMemStats(&ls.memBefore)
	start := time.Now()
	for {
		body := in.encode(in.nextBatch())
		d.batch = ls.batches
		call, visible, err := d.ingest(body)
		ls.batches++
		if err != nil {
			ls.failed++
			ls.err = err
			break
		}
		ls.callMS = append(ls.callMS, ms(call))
		ls.visibleMS = append(ls.visibleMS, ms(visible))
		if d.tr != nil && d.spec.distributed {
			// Counter at the layer boundary, outside the spans.
			if t := d.srv.TopologyNow(); t != nil {
				ls.journaledPeak = max(ls.journaledPeak, t.JournaledEvents)
			}
		}
		if ls.batches%segmentBatches == 0 && time.Since(start) >= dur {
			break
		}
	}
	runtime.ReadMemStats(&ls.mem)
	rows1, _ := d.streamed()
	ls.rows = rows1 - rows0
	return ls
}

// eventsPerSecond is events over the summed ingest-to-visible times of
// the given batches.
func eventsPerSecond(visibleMS []float64) float64 {
	if len(visibleMS) == 0 {
		return 0
	}
	return float64(len(visibleMS)) * batchEvents / (sum(visibleMS) / 1000)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 { return sum(xs) / float64(max(1, len(xs))) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
