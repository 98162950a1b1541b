// Command fwbench reproduces the paper's evaluation: every table and
// figure of Section V and Appendix C has a named experiment that prints
// the corresponding rows.
//
// Usage:
//
//	fwbench -list
//	fwbench -exp fig11 -events 2000000
//	fwbench -exp table1 -reps 3
//	fwbench -exp all -json results.json
//
// Dataset sizes default to a laptop-friendly 400k events; pass
// -events 10000000 to match Synthetic-10M exactly (runs take
// correspondingly longer). Results print to stdout; -json additionally
// writes machine-readable records (experiment name, per-plan events/sec
// rows, and whole-experiment wall-clock/bytes/allocation totals) so the
// repo's BENCH_*.json perf trajectory can be tracked across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"factorwindows/internal/agg"
	"factorwindows/internal/harness"
)

// experimentRecord is the machine-readable outcome of one experiment.
// The totals cover the whole experiment run at the configured -events
// size (they are NOT per-operation values; normalize by Events before
// comparing records taken at different dataset sizes).
type experimentRecord struct {
	Name            string                `json:"name"`
	Events          int                   `json:"events"`
	TotalNs         int64                 `json:"total_ns"`
	TotalBytesAlloc uint64                `json:"total_bytes_alloc"`
	TotalAllocs     uint64                `json:"total_allocs"`
	Rows            []harness.Measurement `json:"rows,omitempty"`
}

// benchReport is the top-level -json document.
type benchReport struct {
	Experiment string             `json:"experiment"`
	Events     int                `json:"events"`
	Keys       int                `json:"keys"`
	Fn         string             `json:"fn"`
	Reps       int                `json:"reps"`
	Seed       int64              `json:"seed"`
	GoVersion  string             `json:"go_version"`
	Results    []experimentRecord `json:"results"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment name (see -list)")
		events   = flag.Int("events", 400_000, "synthetic dataset size (Synthetic-10M = 10000000)")
		keys     = flag.Int("keys", 4, "number of device keys")
		pace     = flag.Int("pace", 4, "events per tick (steady ingestion rate η)")
		seed     = flag.Int64("seed", 42, "workload generator seed")
		reps     = flag.Int("reps", 1, "best-of-N repetitions per throughput measurement")
		fnName   = flag.String("fn", "MIN", "aggregate function")
		jsonPath = flag.String("json", "", "write machine-readable results to this file")
		list     = flag.Bool("list", false, "list available experiments and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Paper)
		}
		return
	}

	fn, err := agg.ParseFn(*fnName)
	if err != nil {
		fatal(err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		defer func() {
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "fwbench:", err)
			}
			f.Close()
		}()
	}
	cfg := harness.Config{
		Events:        *events,
		Keys:          *keys,
		EventsPerTick: *pace,
		Seed:          *seed,
		Reps:          *reps,
		Fn:            fn,
		Out:           os.Stdout,
	}
	if *jsonPath == "" {
		if err := harness.RunExperiment(*exp, cfg); err != nil {
			fatal(err)
		}
		return
	}

	report := benchReport{
		Experiment: *exp, Events: *events, Keys: *keys, Fn: fn.String(),
		Reps: *reps, Seed: *seed, GoVersion: runtime.Version(),
	}
	names := []string{*exp}
	if *exp == "all" {
		names = names[:0]
		for _, e := range harness.Experiments() {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		rec := experimentRecord{Name: name, Events: *events}
		cfg.Record = func(m harness.Measurement) { rec.Rows = append(rec.Rows, m) }
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := harness.RunExperiment(name, cfg); err != nil {
			fatal(err)
		}
		rec.TotalNs = time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		rec.TotalBytesAlloc = after.TotalAlloc - before.TotalAlloc
		rec.TotalAllocs = after.Mallocs - before.Mallocs
		report.Results = append(report.Results, rec)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fwbench: wrote %s\n", *jsonPath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fwbench:", err)
	os.Exit(1)
}
