// Command fwrun executes a multi-window aggregate query over an event
// stream and reports either the window results or the throughput of the
// chosen plan variant.
//
// Usage:
//
//	fwrun -file query.sql -input events.csv -plan factored
//	fwrun -query "..." -dataset synthetic -events 1000000 -plan original -throughput
//	fwrun -file query.sql -dataset debs -plan slicing -throughput
//
// Plan variants: original (independent evaluation), rewritten
// (Algorithm 1), factored (Algorithm 3, the default), slicing (the
// Scotty-style baseline) and sliding (per-window incremental
// aggregation). Every variant runs every aggregate function, the
// sketch-backed ones included: PERCENTILE(v, 0.99), COUNT(DISTINCT v) and
// TOPK(v, 3) share computation under -plan rewritten|factored like SUM
// does, and the call's parameter reaches every variant. Engine-based
// variants accept -shards for key-sharded parallel execution. A WHERE
// clause in the query filters events before any window sees them. Input
// is either a file with "time,key,value" CSV rows or JSON lines
// (-input/-format) or a generated dataset (-dataset).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"factorwindows/internal/asaql"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/parallel"
	"factorwindows/internal/plan"
	"factorwindows/internal/slicing"
	"factorwindows/internal/sliding"
	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
	"factorwindows/internal/workload"
)

func main() {
	var (
		queryText  = flag.String("query", "", "ASA-style query text")
		queryFile  = flag.String("file", "", "file containing an ASA-style query")
		input      = flag.String("input", "", "event file (CSV time,key,value or JSON lines)")
		format     = flag.String("format", "csv", "event file format: csv or jsonl")
		dataset    = flag.String("dataset", "synthetic", "generated dataset when -input is absent: synthetic or debs")
		events     = flag.Int("events", 1_000_000, "generated dataset size")
		keys       = flag.Int("keys", 4, "generated dataset keys")
		pace       = flag.Int("pace", 4, "generated events per tick")
		seed       = flag.Int64("seed", 42, "generated dataset seed")
		planKind   = flag.String("plan", "factored", "plan variant: original, rewritten, factored, slicing, sliding")
		throughput = flag.Bool("throughput", false, "print throughput instead of results")
		limit      = flag.Int("limit", 20, "max result rows to print (0 = all)")
		shards     = flag.Int("shards", 1, "key shards for engine-based plans (>1 runs in parallel)")
	)
	flag.Parse()

	q, err := loadQuery(*queryText, *queryFile)
	if err != nil {
		fatal(err)
	}
	es, err := loadEvents(*input, *format, *dataset, *events, *keys, *pace, *seed)
	if err != nil {
		fatal(err)
	}
	if filter, err := q.Filter(); err != nil {
		fatal(err)
	} else if filter != nil {
		kept := es[:0]
		for _, e := range es {
			if filter(e.Key, e.Value) {
				kept = append(kept, e)
			}
		}
		es = kept
	}

	var sink stream.Sink
	collector := &stream.CollectingSink{}
	counter := &stream.CountingSink{}
	if *throughput {
		sink = counter
	} else {
		sink = collector
	}

	start := time.Now()
	if err := execute(q, *planKind, es, sink, *shards); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if *throughput {
		fmt.Printf("plan=%s events=%d elapsed=%v results=%d throughput=%.0f K events/s\n",
			*planKind, len(es), elapsed.Round(time.Millisecond), counter.N,
			float64(len(es))/elapsed.Seconds()/1e3)
		return
	}
	rows := collector.Sorted()
	fmt.Printf("plan=%s events=%d results=%d\n", *planKind, len(es), len(rows))
	for i, r := range rows {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... (%d more rows)\n", len(rows)-i)
			break
		}
		fmt.Println(r)
	}
}

// baseline is the surface the two non-engine executors share.
type baseline interface {
	SetParam(float64)
	Process([]stream.Event)
	Close()
}

// execute runs the query's first aggregate call over es under the named
// plan variant. The call's finalize parameter (φ of PERCENTILE, k of
// TOPK) reaches every variant, so they all answer the same question.
func execute(q *asaql.Query, planKind string, es []stream.Event, sink stream.Sink, shards int) error {
	set, err := q.Set()
	if err != nil {
		return err
	}
	var p *plan.Plan
	var b baseline
	switch planKind {
	case "slicing":
		b, err = slicing.New(set, q.Fn, sink)
	case "sliding":
		b, err = sliding.New(set, q.Fn, sink)
	case "original":
		p, err = plan.NewOriginal(set, q.Fn)
	case "rewritten", "factored":
		kind := plan.Rewritten
		if planKind == "factored" {
			kind = plan.Factored
		}
		var res *core.Result
		if res, err = core.Optimize(set, q.Fn, core.Options{Factors: kind == plan.Factored}); err == nil {
			p, err = plan.FromGraph(res.Graph, q.Fn, kind)
		}
	default:
		err = fmt.Errorf("unknown -plan %q", planKind)
	}
	if err != nil {
		return err
	}
	if b != nil {
		b.SetParam(q.Param)
		b.Process(es)
		b.Close()
		return nil
	}
	p.Param = q.Param
	if shards > 1 {
		_, err = parallel.Run(p, es, sink, shards)
	} else {
		_, err = engine.Run(p, es, sink)
	}
	return err
}

func loadQuery(text, file string) (*asaql.Query, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		text = string(data)
	}
	if text == "" {
		return nil, fmt.Errorf("one of -query or -file is required")
	}
	return asaql.Parse(text)
}

func loadEvents(input, format, dataset string, events, keys, pace int, seed int64) ([]stream.Event, error) {
	if input == "" {
		cfg := workload.StreamConfig{Events: events, Keys: keys, EventsPerTick: pace, Seed: seed}
		switch dataset {
		case "synthetic":
			return workload.Synthetic(cfg), nil
		case "debs":
			return workload.DEBSLike(cfg), nil
		default:
			return nil, fmt.Errorf("unknown dataset %q", dataset)
		}
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return streamio.ReadEvents(f, format, true)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fwrun:", err)
	os.Exit(1)
}
