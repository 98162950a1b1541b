package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spansKept bounds the spans written to the trace file; the self-time
// aggregates always cover every span.
const spansKept = 100_000

// span is one timed call from the harness into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: top level
	Pass    string `json:"pass"`
	Name    string `json:"name"`
	Batch   int    `json:"batch"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type openSpan struct {
	span
	children int64 // ns covered by child spans
}

// stage aggregates every span of one name within one pass.
type stage struct {
	Count  int64 `json:"count"`
	SelfNS int64 `json:"self_ns"`
	SpanNS int64 `json:"span_ns"`
}

// tracer records spans around harness calls only; nothing inside the
// program under test is instrumented. Spans nest by a stack, so they
// must begin and end on one goroutine per pass — which holds as long as
// result sinks run on the driving goroutine (ordered drain below the
// spill mark). The mutex keeps a spilled shard flush memory-safe.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	pass   string
	muted  bool // warm-up: begin and end do nothing
	nextID int
	open   []openSpan
	spans  []span
	stages map[string]map[string]*stage // pass → name → aggregate
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stages: make(map[string]map[string]*stage)}
}

func (t *tracer) setPass(pass string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass = pass
	t.mu.Unlock()
}

// mute switches recording off (or back on) between batches.
func (t *tracer) mute(on bool) {
	t.mu.Lock()
	t.muted = on
	t.mu.Unlock()
}

// begin opens a span as a child of the innermost open one. A nil tracer
// is the untraced run.
func (t *tracer) begin(name string, batch int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.muted {
		return
	}
	t.nextID++
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].ID
	}
	t.open = append(t.open, openSpan{span: span{
		ID: t.nextID, Parent: parent, Pass: t.pass, Name: name, Batch: batch,
		StartNS: int64(time.Since(t.epoch)),
	}})
}

// end closes the innermost span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.muted {
		return 0
	}
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	s.EndNS = now
	d := s.EndNS - s.StartNS
	if n > 0 {
		t.open[n-1].children += d
	}
	byName := t.stages[s.Pass]
	if byName == nil {
		byName = make(map[string]*stage)
		t.stages[s.Pass] = byName
	}
	st := byName[s.Name]
	if st == nil {
		st = &stage{}
		byName[s.Name] = st
	}
	st.Count++
	st.SpanNS += d
	st.SelfNS += d - s.children
	if len(t.spans) < spansKept {
		t.spans = append(t.spans, s.span)
	}
	return time.Duration(d)
}

// self reports the summed self time of the named spans in a pass.
func (t *tracer) self(pass string, names ...string) time.Duration {
	var d int64
	for _, n := range names {
		if st := t.stages[pass][n]; st != nil {
			d += st.SelfNS
		}
	}
	return time.Duration(d)
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfTimeShare is each stage's share of its pass's total self time:
	// the upper bound on what speeding that stage up can save there.
	SelfTimeShare map[string]map[string]float64 `json:"self_time_share"`
	Stages        map[string]map[string]*stage  `json:"stages"`
	Counters      map[string]float64            `json:"counters"`
	SpansDropped  int                           `json:"spans_dropped"`
	Spans         []span                        `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, counters map[string]float64) (string, error) {
	tf := traceFile{
		Workload: workload, Seed: seed,
		SelfTimeShare: make(map[string]map[string]float64),
		Stages:        t.stages,
		Counters:      counters,
		SpansDropped:  t.nextID - len(t.spans),
		Spans:         t.spans,
	}
	for pass, byName := range t.stages {
		var total int64
		for _, st := range byName {
			total += st.SelfNS
		}
		shares := make(map[string]float64)
		for name, st := range byName {
			if total > 0 {
				shares[name] = float64(st.SelfNS) / float64(total)
			}
		}
		tf.SelfTimeShare[pass] = shares
	}
	sort.Slice(tf.Spans, func(i, j int) bool { return tf.Spans[i].StartNS < tf.Spans[j].StartNS })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
