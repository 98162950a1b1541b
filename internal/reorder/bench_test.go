package reorder

import (
	"math/rand"
	"testing"

	"factorwindows/internal/stream"
)

// discard is a consumer that only counts, so the benchmarks and the
// allocation guard measure the buffer alone.
type discard struct{ n int }

func (d *discard) Process(events []stream.Event) { d.n += len(events) }

// pusher is what the benchmarks need of either buffer.
type pusher interface {
	Push([]stream.Event)
}

// disorderedCycle is the bench workload text_egress's shape: perTick
// distinct keys report every tick, shuffled within blocks of blockTicks
// ticks. shiftCycle replays it endlessly.
func disorderedCycle(seed int64, ticks, perTick, blockTicks int) []stream.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]stream.Event, ticks*perTick)
	for i := range events {
		events[i] = stream.Event{Time: int64(i / perTick), Key: uint64(rng.Intn(8 * perTick)), Value: float64(i)}
	}
	for off := 0; off < len(events); off += blockTicks * perTick {
		b := events[off:min(off+blockTicks*perTick, len(events))]
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	return events
}

func shiftCycle(events []stream.Event, ticks int64) {
	for i := range events {
		events[i].Time += ticks
	}
}

// pushCycle feeds one cycle in 8192-event batches (the server's ingest
// chunk) and moves it one span forward for the next replay.
func pushCycle(b pusher, events []stream.Event, span int64) {
	for lo := 0; lo < len(events); lo += 8192 {
		b.Push(events[lo:min(lo+8192, len(events))])
	}
	shiftCycle(events, span)
}

// TestZeroAllocReorderDisorderedSteadyState guards the disordered path
// the way the engine, wire and text-ingest guards pin theirs: on the
// text_egress shape (512 events per tick shuffled in 8-tick blocks,
// bound 16) a warmed-up buffer must push without allocating, and its
// bucket storage must stay proportional to the backlog — buckets are
// recycled, not regrown, so the buffer's heap share cannot creep.
func TestZeroAllocReorderDisorderedSteadyState(t *testing.T) {
	const ticks, perTick = 128, 512
	events := disorderedCycle(1, ticks, perTick, 8)
	b, err := New(&discard{}, 16, Drop, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	cycle := func() {
		for lo := 0; lo < len(events); lo += 8192 {
			b.Push(events[lo : lo+8192])
			peak = max(peak, b.Buffered())
		}
		shiftCycle(events, ticks)
	}
	cycle() // warm-up: buckets, tick table and release buffer reach their sizes
	cycle()
	storage := func() (events int) {
		for _, s := range b.p.slots {
			events += cap(s.es)
		}
		for _, es := range b.p.spare {
			events += cap(es)
		}
		return events
	}
	before := storage()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("disordered steady state allocates %.1f times per %d-event cycle, want 0", allocs, len(events))
	}
	if b.Late() != 0 {
		t.Fatalf("in-bound shuffle judged %d events late", b.Late())
	}
	if after := storage(); after != before {
		t.Fatalf("bucket storage moved in steady state: %d → %d events", before, after)
	}
	// Append-doubling may round a bucket up to twice its fill, and a
	// recycled bucket may be spare; beyond that storage tracks the peak
	// backlog, not the stream length.
	if before > 4*peak {
		t.Fatalf("bucket storage %d events for a peak backlog of %d", before, peak)
	}
	if n := len(b.p.ticks) + len(b.p.spare); n > 16+8+1 {
		t.Fatalf("%d buckets for at most %d occupied ticks", n, 16+8+1)
	}
}

func benchBuffers(b *testing.B, bound int64, events []stream.Event, span int64) {
	run := func(name string, mk func() pusher) {
		b.Run(name, func(b *testing.B) {
			es := append([]stream.Event(nil), events...)
			buf := mk()
			// Warm up until the backlog spans the bound and stops growing.
			for i := int64(0); i < bound/span+2; i++ {
				pushCycle(buf, es, span)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pushCycle(buf, es, span)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(es)), "ns/event")
		})
	}
	run("buckets", func() pusher {
		buf, _ := New(&discard{}, bound, Drop, nil)
		return buf
	})
	run("heap", func() pusher {
		buf, _ := newHeapBuffer(&discard{}, bound, Drop, nil)
		return buf
	})
}

// BenchmarkReorderDisordered is the text_egress shape (see the guard
// above), bucketed buffer against the heap oracle.
func BenchmarkReorderDisordered(b *testing.B) {
	const ticks, perTick = 128, 512
	benchBuffers(b, 16, disorderedCycle(1, ticks, perTick, 8), ticks)
}

// BenchmarkReorderSparseTicks is the shape buckets help least: one
// event per tick under a bound of 1<<20 ticks, locally shuffled, so
// every event opens and drains its own bucket while a million ticks are
// occupied. There is no fallback path to hide a cliff behind, so the
// ratio to the heap is the number to watch: ≈ 1.4× when recorded (210
// vs 150 ns/event; ISSUE 18 asked for 1.25×), the tick heap costing
// about half of that and cache misses on the tick table the rest.
func BenchmarkReorderSparseTicks(b *testing.B) {
	const ticks = 1 << 18
	benchBuffers(b, 1<<20, disorderedCycle(1, ticks, 1, 64), ticks)
}
