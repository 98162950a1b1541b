package stream

import (
	"math/rand"
	"sort"
	"testing"

	"factorwindows/internal/window"
)

func TestValidate(t *testing.T) {
	ok := []Event{{Time: 0}, {Time: 0}, {Time: 1}, {Time: 5}}
	if err := Validate(ok); err != nil {
		t.Fatal(err)
	}
	if err := Validate(nil); err != nil {
		t.Fatal("empty stream is valid")
	}
	if err := Validate([]Event{{Time: 2}, {Time: 1}}); err == nil {
		t.Fatal("out-of-order must fail")
	}
	if err := Validate([]Event{{Time: -1}}); err == nil {
		t.Fatal("negative time must fail")
	}
}

func TestResultString(t *testing.T) {
	r := Result{W: window.Tumbling(10), Start: 0, End: 10, Key: 3, Value: 7.5}
	if got := r.String(); got != "W(10,10)[0,10) key=3 -> 7.5" {
		t.Fatalf("String = %q", got)
	}
}

func TestSortResultsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rs []Result
	for i := 0; i < 500; i++ {
		rs = append(rs, Result{
			W:     window.Window{Range: int64(rng.Intn(4)+1) * 10, Slide: 10},
			Start: int64(rng.Intn(10) * 10),
			Key:   uint64(rng.Intn(5)),
		})
	}
	SortResults(rs)
	if !sort.SliceIsSorted(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.W.Range != b.W.Range {
			return a.W.Range < b.W.Range
		}
		if a.W.Slide != b.W.Slide {
			return a.W.Slide < b.W.Slide
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Key < b.Key
	}) {
		t.Fatal("SortResults not canonical")
	}
}

func TestSinks(t *testing.T) {
	var c CountingSink
	c.Emit(Result{})
	c.Emit(Result{})
	if c.N != 2 {
		t.Fatalf("count = %d", c.N)
	}
	var col CollectingSink
	col.Emit(Result{W: window.Tumbling(20), Start: 20})
	col.Emit(Result{W: window.Tumbling(10), Start: 0})
	sorted := col.Sorted()
	if sorted[0].W != window.Tumbling(10) {
		t.Fatal("Sorted not sorted")
	}
}

// batchOnly is a sink with Emit and EmitBatch but no EmitRun — the
// shape of the benchmark harness's timed sink — recording how each row
// arrived.
type batchOnly struct {
	rows    []Result
	batches int
}

func (s *batchOnly) Emit(r Result)         { s.rows = append(s.rows, r) }
func (s *batchOnly) EmitBatch(rs []Result) { s.rows = append(s.rows, rs...); s.batches++ }

// rowOnly is a plain Sink.
type rowOnly struct{ rows []Result }

func (s *rowOnly) Emit(r Result) { s.rows = append(s.rows, r) }

// TestEmitRunFallbackMatchesNative feeds the same random runs to a
// native RunSink, to sinks that only get them through EmitRun's
// fallback, and through a RunBuffer drained into each kind: every path
// must deliver the same rows in the same order.
func TestEmitRunFallbackMatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var runs []Run
	for i := 0; i < 200; i++ {
		n := rng.Intn(6) // empty runs included
		if rng.Intn(10) == 0 {
			n = 300 + rng.Intn(300)
		}
		r := Run{
			W:     window.Window{Range: int64(rng.Intn(3)+1) * 4, Slide: 4},
			Start: int64(rng.Intn(4)) * 4,
			Keys:  make([]uint64, n),
			Vals:  make([]float64, n),
		}
		r.End = r.Start + r.W.Range
		for j := range r.Keys {
			r.Keys[j], r.Vals[j] = rng.Uint64(), rng.NormFloat64()
		}
		runs = append(runs, r)
	}

	var native CollectingSink
	var batch, bufBatch batchOnly
	var row, bufRow rowOnly
	var bufNative CollectingSink
	var buf RunBuffer
	nonEmpty := 0
	for _, r := range runs {
		EmitRun(&native, r)
		EmitRun(&batch, r)
		EmitRun(&row, r)
		if r.Len() > 0 {
			nonEmpty++
		}
	}
	if batch.batches != nonEmpty {
		t.Fatalf("fallback made %d EmitBatch calls for %d non-empty runs", batch.batches, nonEmpty)
	}
	// Drain resets, so refill between the three sink kinds.
	for _, s := range []Sink{&bufNative, &bufBatch, &bufRow} {
		for _, r := range runs {
			buf.Append(r)
		}
		if buf.Rows() != len(native.Results) || buf.Runs() > nonEmpty {
			t.Fatalf("buffer holds %d rows in %d runs; emitted %d rows in %d non-empty runs",
				buf.Rows(), buf.Runs(), len(native.Results), nonEmpty)
		}
		buf.Drain(s)
		if buf.Rows() != 0 || buf.Runs() != 0 {
			t.Fatalf("Drain left %d rows, %d runs", buf.Rows(), buf.Runs())
		}
	}
	want := native.Results
	for name, got := range map[string][]Result{
		"EmitRun/batch": batch.rows, "EmitRun/row": row.rows,
		"Drain/native": bufNative.Results, "Drain/batch": bufBatch.rows, "Drain/row": bufRow.rows,
	} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, native RunSink got %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %v, native RunSink got %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestRunBufferCoalescesAndCaps: rows and runs with equal adjacent
// headers fold into one run, and a buffer that grew past RunRetain
// drops its columns on Reset while a smaller one keeps them.
func TestRunBufferCoalescesAndCaps(t *testing.T) {
	w := window.Tumbling(8)
	var b RunBuffer
	b.Emit(Result{W: w, Start: 0, End: 8, Key: 1, Value: 1})
	b.Emit(Result{W: w, Start: 0, End: 8, Key: 2, Value: 2})
	b.Append(Run{W: w, Start: 0, End: 8, Keys: []uint64{3}, Vals: []float64{3}})
	b.Emit(Result{W: w, Start: 8, End: 16, Key: 1, Value: 4})
	if b.Rows() != 4 || b.Runs() != 2 || b.Run(0).Len() != 3 || b.Run(1).Keys[0] != 1 {
		t.Fatalf("%d rows in %d runs, first run %d rows", b.Rows(), b.Runs(), b.Run(0).Len())
	}
	b.Reset()
	if cap(b.keys) == 0 {
		t.Fatal("a small buffer should keep its columns across Reset")
	}
	big := Run{W: w, Start: 16, End: 24, Keys: make([]uint64, RunRetain+1), Vals: make([]float64, RunRetain+1)}
	b.Append(big)
	b.Reset()
	if cap(b.keys) != 0 || cap(b.vals) != 0 || cap(b.hdrs) != 0 {
		t.Fatalf("burst of %d rows left columns of %d/%d rows behind", big.Len(), cap(b.keys), cap(b.vals))
	}
}
