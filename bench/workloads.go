package main

import (
	"fmt"
	"math/rand"
	"strings"

	"factorwindows/internal/agg"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/window"
	"factorwindows/internal/workload"
)

// batchEvents is one operation's size: the server's ingestChunk, so one
// POST /ingest is exactly one engine batch, one WAL record and one
// barrier.
const batchEvents = 8192

// Fixed sizes every workload shares. They are constants, never derived
// from a clock: rows_out, the stream digest and engine.updates_per_event
// are computed over them and must repeat exactly for one seed.
const (
	cycleEventsDefault  = 1 << 20 // one generated input cycle (also the warm-up)
	verifyEventsDefault = 1 << 18 // prefix checked against the naive reference
	segmentBatches      = 16      // a timed loop ends on a multiple: the router compacts its journals every 16 barriers
	shards              = 2       // = nproc on the reference box
)

// windowSetSeed fixes the engine workloads' window set. The paper's
// generator (Algorithm 6) is random, and the plan it yields decides how
// much work an event costs, so drawing it from --seed would make runs of
// different seeds measure different programs. --seed drives values, key
// order and disorder instead, none of which changes the cost of a batch.
// The draw is hand-picked: of the first thirty generator seeds it is the
// one whose plan keeps two factor windows (W(2,2) and W(90,90); model
// cost 2.17x below the original plan), so that the factor-window search
// is part of what is run. core.factor_windows, core.plan_cost and
// core.cost_ratio_vs_original are constants of this one set, not a
// sample of the paper's random workload.
const windowSetSeed = 29

type codec int

const (
	codecBinary codec = iota
	codecNDJSON
)

// spec is one named traffic mix. Everything the server is configured
// with, and everything the generator needs, follows from it; why each
// exists is in BENCHMARK.json and README.md.
type spec struct {
	name string

	fn            agg.Fn
	fnSQL         string
	windows       func() []window.Window
	keys          int
	eventsPerTick int
	// shuffleTicks > 0 shuffles arrival order inside blocks spanning that
	// many ticks; it stays below reorderBound so no event is ever late.
	shuffleTicks int
	reorderBound int64
	codec        codec
	resultBuffer int

	durable     bool
	distributed bool
}

// paperWindows is the Section V-B window set: RandomGen over
// PaperDefaults(10, tumbling).
func paperWindows() []window.Window {
	set, err := workload.RandomGen(workload.PaperDefaults(10, true), rand.New(rand.NewSource(windowSetSeed)))
	if err != nil {
		panic(err) // the configuration is a constant
	}
	return set.Sorted()
}

func egressWindows() []window.Window {
	return []window.Window{window.Tumbling(2), window.Tumbling(4), window.Tumbling(8), window.Hopping(8, 4)}
}

var engineShared = spec{
	name: "engine_shared",
	fn:   agg.Min, fnSQL: "MIN",
	windows: paperWindows,
	keys:    64, eventsPerTick: 64,
	codec: codecBinary,
	// A batch spans 128 ticks; the smallest window the generator can draw
	// (range 4) fires 32 instances x 64 keys in it, so 16384 rows per
	// query is several batches of headroom.
	resultBuffer: 1 << 14,
}

var workloads = []spec{
	engineShared,
	{
		name: "text_egress",
		fn:   agg.Sum, fnSQL: "SUM",
		windows: egressWindows,
		// 512 of the 4096 keys report per tick, each key every 8th tick,
		// so nearly every event is alone in its window instance and each
		// window emits a row per event.
		keys: 4096, eventsPerTick: 512,
		shuffleTicks: 8, reorderBound: 16,
		codec: codecNDJSON,
		// About 25k rows per query per batch; must stay above that, and
		// each shard's share below parallel.OrderedSpill (32768).
		resultBuffer: 1 << 16,
	},
	withDurability(engineShared),
	withWorkers(engineShared),
}

func withDurability(s spec) spec {
	s.name = "durable_admit"
	s.durable = true
	return s
}

func withWorkers(s spec) spec {
	s.name = "distributed_2w"
	s.distributed = true
	return s
}

func findWorkload(name string) (spec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// query is one ASAQL registration; the two queries of a workload split
// its window set between them so that results are routed, not broadcast.
type query struct {
	id      string
	sql     string
	windows []window.Window
}

func (s spec) queries() []query {
	ws := s.windows()
	qs := []query{{id: "q1"}, {id: "q2"}}
	for i, w := range ws {
		q := &qs[i%2]
		q.windows = append(q.windows, w)
	}
	for i := range qs {
		var parts []string
		for _, w := range qs[i].windows {
			if w.Range == w.Slide {
				parts = append(parts, fmt.Sprintf("TumblingWindow(tick, %d)", w.Range))
			} else {
				parts = append(parts, fmt.Sprintf("HoppingWindow(tick, %d, %d)", w.Range, w.Slide))
			}
		}
		qs[i].sql = fmt.Sprintf("SELECT DeviceID, %s(T) FROM In GROUP BY DeviceID, Windows(%s)",
			s.fnSQL, strings.Join(parts, ", "))
	}
	return qs
}

func (s spec) multiqueries() []multiquery.Query {
	var out []multiquery.Query
	for _, q := range s.queries() {
		out = append(out, multiquery.Query{ID: q.id, Windows: q.windows})
	}
	return out
}
