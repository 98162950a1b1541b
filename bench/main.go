// Command bench is the repository's one end-to-end and per-layer
// benchmark. It drives a server.Server in process through its HTTP
// handler — POST /ingest in, long-lived GET /queries/{id}/stream out —
// as one closed-loop client, checks the streamed rows against a naive
// reference, and prints the metrics BENCHMARK.json declares. README.md
// in this directory says what each workload and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/server"
)

type options struct {
	workload      string
	seed          int64
	seconds       float64
	trace         int
	cycleEvents   int
	verifyEvents  int
	benchmarkJSON string
	outDir        string
	outFile       string
}

// info records where and on what a run was made.
type info struct {
	NProc        int    `json:"nproc"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	Shards       int    `json:"shards"`
	BatchEvents  int    `json:"batch_events"`
	CycleEvents  int    `json:"cycle_events"`
	VerifyEvents int    `json:"verify_events"`
	// TimedEvents is how many events the timed loop got through in
	// --seconds; WarmRows and WarmDigest cover the fixed warm-up cycle and
	// are a pure function of the seed.
	TimedEvents int64  `json:"timed_events"`
	WarmRows    int64  `json:"warm_rows"`
	WarmDigest  string `json:"warm_digest"`
	TraceFile   string `json:"trace_file,omitempty"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Info     info   `json:"info"`
	Result   result `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var compare bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: values, key order, disorder")
	fs.Float64Var(&o.seconds, "seconds", 0, "how long one run measures (default: BENCHMARK.json's run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced passes and per-layer metrics")
	fs.IntVar(&o.cycleEvents, "cycle-events", cycleEventsDefault, "events per generated cycle (smoke test scale)")
	fs.IntVar(&o.verifyEvents, "verify-events", verifyEventsDefault, "events checked against the reference")
	fs.StringVar(&o.benchmarkJSON, "benchmark-json", "BENCHMARK.json", "metric declarations and bounds")
	fs.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "trace files and scratch space")
	fs.StringVar(&o.outFile, "out", "", "append each run as a JSON line to this file")
	fs.BoolVar(&compare, "compare", false, "compare the run sets in the one or two -out files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bj, err := readBenchmarkJSON(o.benchmarkJSON)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if compare {
		if err := compareFiles(stdout, bj, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if o.seconds == 0 {
		o.seconds = float64(bj.RunSeconds)
	}
	if o.cycleEvents%batchEvents != 0 || o.verifyEvents < batchEvents ||
		o.verifyEvents%batchEvents != 0 || o.verifyEvents > o.cycleEvents || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -cycle-events and -verify-events must be multiples of", batchEvents,
			"with 0 < verify <= cycle, -seconds > 0 and -trace 0 or 1")
		return 2
	}

	var picked []spec
	if o.workload == "all" {
		picked = workloads
	} else {
		s, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		picked = []spec{s}
	}
	traces := []int{o.trace}
	if o.workload == "all" {
		traces = []int{0, 1}
	}

	code := 0
	for _, s := range picked {
		for _, trace := range traces {
			rec, err := runGuarded(o, s, trace, bj, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
				return 1
			}
			if !rec.Result.Correct || rec.Result.Failed > 0 {
				code = 1
			}
			infoLine, _ := json.Marshal(struct {
				Workload string `json:"workload"`
				Seed     int64  `json:"seed"`
				Trace    int    `json:"trace"`
				Info     info   `json:"info"`
			}{rec.Workload, rec.Seed, rec.Trace, rec.Info})
			fmt.Fprintf(stderr, "%s\n", infoLine)
			if o.outFile != "" {
				if err := appendRecord(o.outFile, rec); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
			var line []byte
			if o.workload == "all" {
				line, err = json.Marshal(rec)
			} else {
				line, err = json.Marshal(rec.Result)
			}
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	return code
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// watchdog is the wall-clock limit of one run of one workload, below the
// 180 s the benchmark contract allows.
const watchdog = 150 * time.Second

// runGuarded runs one workload under the watchdog. The router has no
// deadlines, so a stuck worker would otherwise hang the run forever; the
// watchdog names the workload, dumps every goroutine, removes the
// scratch directory and exits.
func runGuarded(o options, s spec, trace int, bj benchmarkJSON, stderr io.Writer) (record, error) {
	scratch, err := makeScratch(o.outDir)
	if err != nil {
		return record{}, err
	}
	defer os.RemoveAll(scratch)
	dog := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "bench: workload %s exceeded its %v watchdog; goroutines:\n", s.name, watchdog)
		pprof.Lookup("goroutine").WriteTo(stderr, 2)
		os.RemoveAll(scratch)
		os.Exit(3)
	})
	defer dog.Stop()

	rec := record{Workload: s.name, Seed: o.seed, Trace: trace, Info: info{
		NProc:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		Shards:      shards,
		BatchEvents: batchEvents, CycleEvents: o.cycleEvents, VerifyEvents: o.verifyEvents,
	}}
	var values map[string]float64
	defs := bj.EndToEnd
	if trace == 0 {
		values, err = measureEndToEnd(o, s, scratch, &rec)
	} else {
		defs = bj.PerLayer
		values, err = measureLayers(o, s, scratch, &rec)
	}
	if err != nil {
		return rec, err
	}
	rec.Result.Metrics, err = fill(defs, values)
	return rec, err
}

func makeScratch(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-")
}

// commit is what run.sh found with git, if the checkout is a repository.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// warmUp is the fixed first cycle every deployment is driven through
// before anything is timed. Its rows and stream digest depend on the
// seed alone.
type warmUp struct {
	rows   int64
	digest uint32
}

// bringUp builds the deployment and drives it through the warm-up
// cycle. With generating the inputs it is everything setup_s covers.
func bringUp(s spec, in *inputs, scratch string) (*deployment, warmUp, error) {
	d, err := deploy(s, scratch, false)
	if err != nil {
		return nil, warmUp{}, err
	}
	for b := 0; b < in.batches(); b++ {
		if _, _, err := d.ingest(in.encode(in.nextBatch())); err != nil {
			d.close()
			return nil, warmUp{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	rows, crc := d.streamed()
	return d, warmUp{rows, crc}, nil
}

// finish folds a timed loop's outcome into the record and checks the
// deployment's health counters.
func finish(rec *record, d *deployment, ls loopStats) error {
	rec.Result.Attempted += ls.batches
	rec.Result.Failed += ls.failed
	if ls.err != nil {
		rec.Result.Correct = false
		return nil // reported as a failed operation, not as a crash
	}
	return d.health()
}

// setups is how many times an untraced run sets the deployment up.
// setup_s is their median; the last one is kept for the timed loop.
const setups = 3

func measureEndToEnd(o options, s spec, scratch string, rec *record) (map[string]float64, error) {
	if err := verify(s, generate(s, o.seed, o.cycleEvents), o.verifyEvents, scratch); err != nil {
		return nil, err
	}
	rec.Result.Correct = true

	var (
		in     *inputs
		d      *deployment
		warm   warmUp
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		in = generate(s, o.seed, o.cycleEvents)
		var w warmUp
		var err error
		if d, w, err = bringUp(s, in, scratch); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i > 0 && w != warm {
			d.close()
			return nil, fmt.Errorf("warm-up streams differ between set-ups of one seed: %d rows digest %08x, then %d rows digest %08x",
				warm.rows, warm.digest, w.rows, w.digest)
		}
		warm = w
	}
	rec.Info.WarmRows, rec.Info.WarmDigest = warm.rows, fmt.Sprintf("%08x", warm.digest)

	ls := runLoop(d, in, time.Duration(o.seconds*float64(time.Second)))
	rec.Info.TimedEvents = ls.events()
	err := finish(rec, d, ls)
	eventsPerS, visibleP50 := eventsPerSecond(ls.visibleMS), median(ls.visibleMS)
	ls = loopStats{}

	// Live heap of the open deployment. What is alive moves from moment
	// to moment (durable_admit's WAL keeps a staging buffer of whatever
	// capacity its last backlog needed, anything from 0 to 1.5 MB), so it
	// is read several times, a stretch of untimed load apart, and the
	// median is reported. What is still alive once the deployment is
	// closed belongs to the harness and is taken off.
	var heapMB []float64
	for i := 0; i < heapSamples && err == nil && rec.Result.Correct; i++ {
		if i > 0 {
			err = finish(rec, d, runLoop(d, in, heapSampleGap))
		}
		heapMB = append(heapMB, liveHeapMB())
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	d = nil
	harnessMB := liveHeapMB()
	runtime.KeepAlive(in) // alive in every heap reading above, so in this one too
	return map[string]float64{
		"setup_s":        median(setupS),
		"events_per_s":   eventsPerS,
		"visible_p50_ms": visibleP50,
		"live_heap_mb":   median(heapMB) - harnessMB,
	}, nil
}

const (
	heapSamples   = 5
	heapSampleGap = 200 * time.Millisecond
)

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func measureLayers(o options, s spec, scratch string, rec *record) (map[string]float64, error) {
	in := generate(s, o.seed, o.cycleEvents)
	if err := verify(s, in, o.verifyEvents, scratch); err != nil {
		return nil, err
	}
	rec.Result.Correct = true
	tr := newTracer()
	v := make(map[string]float64)
	share := time.Duration(o.seconds * 0.3 * float64(time.Second))

	// Plan quality, measured on the optimizer alone.
	start := time.Now()
	mp, err := multiquery.Optimize(s.multiqueries(), s.fn, optimizerOptions())
	if err != nil {
		return nil, err
	}
	v["core.optimize_ms"] = ms(time.Since(start))
	opt := mp.Optimization
	v["core.factor_windows"] = float64(len(opt.FactorWindows))
	naive, _ := new(big.Float).SetInt(opt.NaiveCost).Float64()
	deployed, _ := new(big.Float).SetInt(opt.OptimizedCost).Float64()
	v["core.plan_cost"] = deployed
	v["core.cost_ratio_vs_original"] = naive / deployed

	perShard := make([]float64, shards)
	for i := range in.events {
		perShard[parallel.ShardOf(in.events[i].Key, shards)]++
	}
	v["parallel.shard_skew"] = slices.Max(perShard) / (float64(len(in.events)) / shards)

	// Untraced server loop: the base the traced passes are compared to.
	untraced, err := serverPass(s, in, scratch, share, nil, rec)
	if err != nil {
		return nil, err
	}
	rec.Info.WarmRows, rec.Info.WarmDigest = untraced.warm.rows, fmt.Sprintf("%08x", untraced.warm.digest)
	rec.Info.TimedEvents = untraced.events()
	v["core.register_ms"] = ms(untraced.register)
	v["server.rows_out"] = float64(untraced.warm.rows)
	v["server.ingest_call_p50_ms"] = median(untraced.callMS)
	v["server.ingest_call_p99_ms"] = quantile(untraced.callMS, 0.99)
	v["server.visible_p99_ms"] = quantile(untraced.visibleMS, 0.99)
	var waitMS float64
	for i := range untraced.callMS {
		waitMS += untraced.visibleMS[i] - untraced.callMS[i]
	}
	v["server.read_ns_per_row"] = perUnit(waitMS*1e6, untraced.rows)
	events := float64(untraced.events())
	v["runtime.alloc_bytes_per_event"] = float64(untraced.mem.TotalAlloc-untraced.memBefore.TotalAlloc) / events
	v["runtime.allocs_per_batch"] = float64(untraced.mem.Mallocs-untraced.memBefore.Mallocs) / float64(untraced.batches)
	v["runtime.gc_cycles"] = float64(untraced.mem.NumGC - untraced.memBefore.NumGC)
	v["runtime.gc_pause_total_ms"] = float64(untraced.mem.PauseTotalNs-untraced.memBefore.PauseTotalNs) / 1e6

	// (a) The same loop with a span around every harness→server call.
	traced, err := serverPass(s, in, scratch, share, tr, rec)
	if err != nil {
		return nil, err
	}
	v["trace.overhead_share"] = 1 - eventsPerSecond(traced.visibleMS)/eventsPerSecond(untraced.visibleMS)
	v["server.evicted"] = float64(traced.lost)
	v["parallel.egress_peak_rows"] = 0
	if !s.distributed {
		v["parallel.egress_peak_rows"] = float64(traced.stats.EgressPeakRows)
	}
	v["wal.fsyncs"] = float64(traced.stats.WALFsyncs)
	v["wal.staged_peak_bytes"] = float64(traced.stats.WALStagedPeak)
	v["wal.snapshot_ms"] = ms(traced.snapshot)
	v["admit.peak_bytes"] = float64(traced.stats.AdmitPeakBytes)
	v["admit.shed"] = float64(traced.stats.AdmitShed)
	v["reorder.late"] = float64(traced.stats.Late)
	v["router.conn_writes_per_batch"] = perUnit(float64(traced.writes), int64(traced.batches))
	v["router.bytes_per_event"] = perUnit(float64(traced.written), traced.events())
	v["router.result_bytes_per_row"] = perUnit(float64(traced.read), traced.rows)
	v["router.journaled_events_peak"] = float64(traced.journaledPeak)
	v["router.failovers"] = 0
	if t := traced.stats.Topology; t != nil {
		v["router.failovers"] = float64(t.Failovers)
	}

	// (b) The ingest path rebuilt from the layers' public APIs.
	var workers []string
	if s.distributed {
		ws, err := startWorkers(shards)
		if err != nil {
			return nil, err
		}
		defer ws.close()
		workers = ws.addrs
	}
	staged, err := stagedReplay(s, in, share, tr, scratch, workers)
	if err != nil {
		return nil, err
	}
	if staged.late != 0 {
		return nil, fmt.Errorf("staged replay: %d late events", staged.late)
	}
	self := func(names ...string) float64 { return float64(tr.self(passStaged, names...)) }
	sEvents, sBatches := staged.events(), int64(staged.batches)
	for _, layer := range []string{"parallel", "router"} {
		v[layer+".process_ns_per_event"] = perUnit(self(layer+".process"), sEvents)
		v[layer+".advance_ns_per_batch"] = perUnit(self(layer+".advance"), sBatches)
		v[layer+".barrier_ns_per_batch"] = perUnit(self(layer+".barrier"), sBatches)
	}
	v["router.new_ms"] = ms(staged.routerNew)
	v["reorder.push_self_ns_per_event"] = perUnit(self("reorder.push"), sEvents)
	v["reorder.buffered_peak"] = float64(staged.bufferedPeak)
	v["streamio.decode_ns_per_event"] = perUnit(self("streamio.decode"), sEvents)
	v["streamio.encode_ns_per_row"] = perUnit(self("streamio.encode"), staged.rows)
	v["wire.decode_ns_per_event"] = perUnit(self("wire.decode"), sEvents)
	v["wire.encode_ns_per_row"] = perUnit(self("wire.encode"), staged.rows)
	v["wire.bytes_per_event"] = 0
	if s.codec == codecBinary {
		v["wire.bytes_per_event"] = float64(len(in.encode(in.events[:batchEvents]))) / batchEvents
	}
	v["wal.append_ns_per_batch"] = perUnit(self("wal.append"), sBatches)
	v["wal.commit_wait_ns_per_batch"] = perUnit(self("wal.commit_wait"), sBatches)
	v["wal.bytes_per_event"] = perUnit(float64(staged.walRecordBytes), sEvents)
	v["admit.acquire_ns_per_batch"] = perUnit(self("admit.acquire", "admit.release"), sBatches)
	v["multiquery.sink_ns_per_row"] = perUnit(self("multiquery.sink"), staged.rows)
	v["trace.coverage"] = mean(staged.ingestPathMS) / mean(untraced.callMS)

	// (c) One engine, one thread: the baseline the shards divide.
	eng, err := enginePass(s, in, 2, tr)
	if err != nil {
		return nil, err
	}
	v["engine.process_ns_per_event"] = perUnit(float64(eng.process), eng.events)
	v["engine.updates_per_event"] = perUnit(float64(eng.updates), eng.events)
	v["engine.rows_per_event"] = perUnit(float64(eng.rows), eng.events)
	v["engine.snapshot_ms"] = ms(eng.snapshot)
	v["engine.snapshot_bytes"] = float64(eng.snapshotBytes)

	rec.Info.TraceFile, err = tr.write(o.outDir, s.name, o.seed, v)
	return v, err
}

func perUnit(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// serverPassResult is one server loop and what is read off its
// deployment before and after it.
type serverPassResult struct {
	loopStats
	warm                  warmUp
	register              time.Duration
	stats                 server.Stats
	lost                  int64
	snapshot              time.Duration
	writes, written, read int64 // worker connections, timed loop only
}

// serverPass sets a deployment up, runs one timed loop against it and
// tears it down. With a tracer the loop is pass (a).
func serverPass(s spec, in *inputs, scratch string, dur time.Duration, tr *tracer, rec *record) (p serverPassResult, err error) {
	in.rewind()
	d, warm, err := bringUp(s, in, scratch)
	if err != nil {
		return p, err
	}
	defer func() {
		if cerr := d.close(); err == nil {
			err = cerr
		}
	}()
	p.warm, p.register = warm, d.registerTime

	tr.setPass(passServer)
	d.tr = tr
	w0, b0, r0 := d.conns.writes.Load(), d.conns.written.Load(), d.conns.read.Load()
	p.loopStats = runLoop(d, in, dur)
	p.writes, p.written, p.read = d.conns.writes.Load()-w0, d.conns.written.Load()-b0, d.conns.read.Load()-r0
	if err := finish(rec, d, p.loopStats); err != nil {
		return p, err
	}
	if p.err != nil {
		return p, p.err
	}
	if tr != nil && s.durable {
		// Server.Snapshot refuses while an automatic snapshot's write is
		// still in flight; that write takes milliseconds.
		for try := 0; ; try++ {
			tr.begin("server.snapshot", p.batches)
			_, serr := d.srv.Snapshot()
			p.snapshot = tr.end()
			if serr == nil {
				break
			}
			if !errors.Is(serr, server.ErrConflict) || try == 100 {
				return p, fmt.Errorf("snapshot: %w", serr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	p.stats = d.srv.StatsNow()
	for _, r := range d.readers {
		p.lost += r.lost
	}
	return p, nil
}
