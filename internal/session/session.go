// Package session extends the paper's shared-computation idea to session
// windows, one of the window types Scotty supports and Section I lists as
// future work for the factor-window approach.
//
// A session window with gap g groups, per key, maximal runs of events in
// which consecutive events are at most g ticks apart; the session's
// interval is [firstEvent, lastEvent+1). Queries over several gaps on the
// same stream are the session analogue of the paper's correlated window
// sets, and they exhibit the same sharing structure: for gaps g1 ≤ g2,
// every g2-session is a disjoint union of whole g1-sessions (two events
// within g1 of each other are also within g2). That is exactly the
// "partitioned by" relation of Theorem 4 transplanted to data-dependent
// windows, so distributive and algebraic aggregates over a g2-session can
// be computed by merging the sub-aggregates of its g1-sessions
// (Theorem 5), and holistic ones can share raw values the way slicing
// does (Section III-A).
//
// Runner evaluates all gaps in one pass: the smallest gap folds raw
// events, and each larger gap consumes the closed sessions of the
// previous gap as sub-aggregates — a chain-shaped rewritten plan.
package session

import (
	"fmt"
	"sort"

	"factorwindows/internal/agg"
	"factorwindows/internal/stream"
)

// Result is one closed session.
type Result struct {
	// Gap identifies which session query the result belongs to.
	Gap int64
	// Key is the group key.
	Key uint64
	// Start and End delimit the session interval [Start, End); End is
	// lastEvent+1.
	Start, End int64
	// Count is the number of events in the session.
	Count int64
	// Value is the aggregate over the session's events.
	Value float64
}

// Sink consumes session results.
type Sink interface {
	Emit(Result)
}

// CollectingSink stores all results, for tests and inspection.
type CollectingSink struct {
	Results []Result
}

// Emit implements Sink.
func (c *CollectingSink) Emit(r Result) { c.Results = append(c.Results, r) }

// Sorted returns the results ordered by (gap, key, start).
func (c *CollectingSink) Sorted() []Result {
	out := append([]Result(nil), c.Results...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Gap != b.Gap {
			return a.Gap < b.Gap
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Start < b.Start
	})
	return out
}

// open is one in-flight session for a key at one level.
type open struct {
	first, last int64 // first and last event times
	st          *agg.State
}

// level evaluates one gap. Level 0 reads raw events; level i>0 reads the
// closed sessions of level i−1 as sub-aggregates.
type level struct {
	gap     int64
	exposed bool // false would allow "factor gaps"; all query gaps expose
	prev    *level
	next    *level
	r       *Runner

	sessions map[uint64]*open
}

// Runner evaluates an aggregate over several session gaps in one pass.
// It is single-core and not safe for concurrent use. Events must be in
// non-decreasing time order.
type Runner struct {
	fn     agg.Fn
	sink   Sink
	levels []*level // ascending gap; levels[0] reads raw events
	closed bool

	events  int64
	updates int64 // state updates (adds + merges), the work counter

	statePool []*agg.State
}

// New builds a runner for the given gaps (duplicates rejected).
func New(gaps []int64, fn agg.Fn, sink Sink) (*Runner, error) {
	if len(gaps) == 0 {
		return nil, fmt.Errorf("session: no gaps")
	}
	if sink == nil {
		return nil, fmt.Errorf("session: nil sink")
	}
	if !fn.Valid() {
		return nil, fmt.Errorf("session: invalid aggregate function %v", fn)
	}
	if agg.SketchBacked(fn) {
		// Session levels aggregate through flat scalar cells; sketch
		// states live in the windowed executors (internal/engine).
		return nil, fmt.Errorf("session: %v is sketch-backed and not supported over session windows", fn)
	}
	sorted := append([]int64(nil), gaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	r := &Runner{fn: fn, sink: sink}
	for i, g := range sorted {
		if g <= 0 {
			return nil, fmt.Errorf("session: gap %d must be positive", g)
		}
		if i > 0 && sorted[i-1] == g {
			return nil, fmt.Errorf("session: duplicate gap %d", g)
		}
		r.levels = append(r.levels, &level{gap: g, exposed: true, r: r, sessions: make(map[uint64]*open)})
	}
	for i := 0; i+1 < len(r.levels); i++ {
		r.levels[i].next = r.levels[i+1]
		r.levels[i+1].prev = r.levels[i]
	}
	return r, nil
}

// Process folds a batch of in-order events.
func (r *Runner) Process(events []stream.Event) {
	if r.closed {
		panic("session: Process after Close")
	}
	l0 := r.levels[0]
	for i := range events {
		e := &events[i]
		r.events++
		s := l0.sessions[e.Key]
		if s != nil && e.Time-s.last > l0.gap {
			l0.close(e.Key, s)
			s = nil
		}
		if s == nil {
			s = &open{first: e.Time, st: r.newState()}
			l0.sessions[e.Key] = s
		}
		s.last = e.Time
		agg.Add(r.fn, s.st, e.Value)
		r.updates++
	}
}

// Advance closes, at every level, all sessions already unreachable at
// watermark w (their last event is more than the gap before w). Calling
// it is optional — Close flushes everything — but keeps latency and state
// bounded on long streams.
func (r *Runner) Advance(w int64) {
	if r.closed {
		panic("session: Advance after Close")
	}
	r.levels[0].advance(w)
}

func (l *level) advance(w int64) {
	var done []uint64
	for key, s := range l.sessions {
		if l.expired(key, s, w) {
			done = append(done, key)
		}
	}
	// Deterministic close order for reproducible sink output.
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	for _, key := range done {
		l.close(key, l.sessions[key])
	}
	if l.next != nil {
		l.next.advance(w)
	}
}

// expired reports whether session s for key can no longer grow at
// watermark w (all future events are at time ≥ w). The session's next
// possible contribution is the eventual close of the nearest lower level
// holding an open session for the key: that session will arrive here as a
// sub-session starting at its (already fixed) first-event time — it
// either will merge into s (so s must stay open regardless of w) or
// starts too late to ever merge (so s can close now). An open session two
// or more levels down matters just the same, because it propagates up
// through the intermediate levels keeping its first time. With nothing
// open below, any future contribution stems from a raw event at time ≥ w.
func (l *level) expired(key uint64, s *open, w int64) bool {
	next := w
	for p := l.prev; p != nil; p = p.prev {
		if ps := p.sessions[key]; ps != nil {
			next = ps.first
			break
		}
	}
	return next-s.last > l.gap
}

// close finalizes one session: emit to the sink when exposed, hand the
// sub-aggregate to the next level, release state.
func (l *level) close(key uint64, s *open) {
	delete(l.sessions, key)
	if l.exposed {
		l.r.sink.Emit(Result{
			Gap: l.gap, Key: key, Start: s.first, End: s.last + 1,
			Count: s.st.Cnt, Value: agg.Final(l.r.fn, s.st),
		})
	}
	if l.next != nil {
		l.next.absorb(key, s)
		return
	}
	l.r.release(s)
}

// absorb folds a closed sub-session from the previous (smaller) gap into
// this level's open session for the key.
func (l *level) absorb(key uint64, sub *open) {
	s := l.sessions[key]
	if s != nil && sub.first-s.last > l.gap {
		l.close(key, s)
		s = nil
	}
	if s == nil {
		s = &open{first: sub.first, st: l.r.newState()}
		l.sessions[key] = s
	}
	s.last = sub.last
	agg.MergeRaw(l.r.fn, s.st, sub.st)
	l.r.updates++
	l.r.release(sub)
}

// Close flushes every open session at every level.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	// Levels close front-to-back so sub-sessions propagate down the chain
	// before the larger gaps flush.
	for _, l := range r.levels {
		keys := make([]uint64, 0, len(l.sessions))
		for key := range l.sessions {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, key := range keys {
			l.close(key, l.sessions[key])
		}
	}
	r.closed = true
}

// Events returns the number of raw events processed.
func (r *Runner) Events() int64 { return r.events }

// Updates returns the number of aggregate-state updates performed (raw
// adds plus sub-session merges) — the session analogue of the cost
// model's total computation C. A naive evaluation folds every event once
// per gap; the chain folds it once plus one merge per session boundary.
func (r *Runner) Updates() int64 { return r.updates }

// Run is a convenience wrapper: process all events and flush.
func Run(gaps []int64, fn agg.Fn, events []stream.Event, sink Sink) (*Runner, error) {
	r, err := New(gaps, fn, sink)
	if err != nil {
		return nil, err
	}
	r.Process(events)
	r.Close()
	return r, nil
}

// RunNaive evaluates each gap independently from raw events (the
// unshared baseline), for tests and benchmarks.
func RunNaive(gaps []int64, fn agg.Fn, events []stream.Event, sink Sink) (int64, error) {
	var updates int64
	for _, g := range gaps {
		r, err := Run([]int64{g}, fn, events, sink)
		if err != nil {
			return 0, err
		}
		updates += r.Updates()
	}
	return updates, nil
}

func (r *Runner) newState() *agg.State {
	if k := len(r.statePool); k > 0 {
		st := r.statePool[k-1]
		r.statePool = r.statePool[:k-1]
		return st
	}
	return &agg.State{}
}

func (r *Runner) release(s *open) {
	s.st.Reset()
	r.statePool = append(r.statePool, s.st)
	s.st = nil
}
