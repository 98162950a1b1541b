package engine

import (
	"math/rand"
	randv2 "math/rand/v2"
	"strings"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/workload"
)

// longestProbe walks the index and returns the largest distance of an
// entry from its home entry.
func longestProbe(t *keyTable) int {
	far := 0
	mask := uint64(len(t.index) - 1)
	for i, e := range t.index {
		if e.slot != 0 {
			home := e.key * t.mul >> t.shift
			far = max(far, int((uint64(i)-home)&mask))
		}
	}
	return far
}

// TestKeyIndexHostileKeys pins the key index's two promises: slots are
// numbered by first appearance whatever the hash does, and keys chosen to
// collide cannot make lookups quadratic. Multiples of fibMul's inverse
// all hash to one home under the starting multiplier; the index must
// redraw it (at most twice) and keep every probe run within maxProbe,
// while benign key sets — sequential keys, and the keys one of several
// ShardOf shards receives — never redraw. Redraws come from seeded
// sources, so each case replays exactly: an arithmetic progression
// clusters under about one random multiplier in twenty, so unseeded
// draws would need a third redraw about once in a thousand runs.
func TestKeyIndexHostileKeys(t *testing.T) {
	const n = 1 << 16
	inv := uint64(fibMul) // Newton's iteration for the inverse mod 2⁶⁴
	for range 5 {
		inv *= 2 - fibMul*inv
	}
	if inv*fibMul != 1 {
		t.Fatalf("bad inverse %#x", inv)
	}
	hostile, sequential, shard := make([]uint64, n), make([]uint64, n), make([]uint64, 0, n)
	for j := range uint64(n) {
		hostile[j] = j * inv
		sequential[j] = j
	}
	for k := uint64(0); len(shard) < n; k++ {
		// ShardOf(k, 3) == 1, spelt out: parallel imports this package.
		if (k*fibMul>>32)%3 == 1 {
			shard = append(shard, k)
		}
	}
	for _, tc := range []struct {
		name       string
		keys       []uint64
		maxRedraws int
	}{
		{"hostile", hostile, 2},
		{"sequential", sequential, 0},
		{"shard", shard, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := range uint64(8) {
				kt := keyTable{draw: randv2.New(randv2.NewPCG(seed, 0))}
				for i, k := range tc.keys {
					if _, ok := kt.lookup(k); ok {
						t.Fatalf("seed %d: key %d found before its first appearance", seed, k)
					}
					if s := kt.add(k); s != int32(i) {
						t.Fatalf("seed %d: key %d got slot %d, want first-appearance slot %d", seed, k, s, i)
					}
				}
				for i, k := range tc.keys {
					if s, ok := kt.lookup(k); !ok || s != int32(i) {
						t.Fatalf("seed %d: lookup(%d) = %d, %v; want %d", seed, k, s, ok, i)
					}
				}
				if kt.redraws > tc.maxRedraws {
					t.Errorf("seed %d: %d redraws, want at most %d", seed, kt.redraws, tc.maxRedraws)
				}
				if tc.maxRedraws == 0 && kt.mul != fibMul {
					t.Errorf("seed %d: multiplier %#x, want the starting %#x", seed, kt.mul, uint64(fibMul))
				}
				if far := longestProbe(&kt); far > maxProbe {
					t.Errorf("seed %d: an entry sits %d from home, past the bound %d", seed, far, maxProbe)
				}
				if 2*len(kt.keys) > len(kt.index) {
					t.Errorf("seed %d: index of %d entries holds %d keys: over half full", seed, len(kt.index), len(kt.keys))
				}
			}
			// The batch form the engine's pre-pass uses numbers them alike,
			// through the redraws and growth it meets mid-batch, and
			// resolves a repeat from the index.
			evs := make([]stream.Event, 0, len(tc.keys)+1)
			for _, k := range tc.keys {
				evs = append(evs, stream.Event{Key: k})
			}
			evs = append(evs, stream.Event{Key: tc.keys[7]})
			var bt keyTable
			slots := bt.appendSlots(nil, evs)
			for i, s := range slots[:len(tc.keys)] {
				if s != int32(i) {
					t.Fatalf("batch slot %d for key %d, want %d", s, tc.keys[i], i)
				}
			}
			if last := slots[len(tc.keys)]; last != 7 || len(bt.keys) != len(tc.keys) {
				t.Fatalf("repeated key resolved to slot %d of %d keys, want 7 of %d", last, len(bt.keys), len(tc.keys))
			}
			// A carried table indexes the same way, and refuses a key
			// listed twice.
			var r Runner
			if err := r.loadKeys(tc.keys); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, n / 2, n - 1} {
				if s, ok := r.keyed.lookup(tc.keys[i]); !ok || s != int32(i) {
					t.Fatalf("loaded lookup(%d) = %d, %v; want %d", tc.keys[i], s, ok, i)
				}
			}
			if longestProbe(&r.keyed) > maxProbe {
				t.Error("loaded index exceeds the probe bound")
			}
			dup := append(append([]uint64(nil), tc.keys[:100]...), tc.keys[40])
			err := r.loadKeys(dup)
			if err == nil || !strings.Contains(err.Error(), "slots 40 and 100") {
				t.Fatalf("duplicated key: got %v, want a slots 40 and 100 error", err)
			}
		})
	}
}

// BenchmarkEngineShard measures one engine running one engine_shared
// shard: MIN over the seed-29 Section V-B window set's factored plan (the
// end-to-end benchmark's engine workloads use the same draw), 32 keys —
// the half of 64 that ShardOf routes to shard 0 of 2 — times 128 ticks
// per 4,096-event Process, each followed by an Advance. It reports
// ns/event. Measuring only: it has no committed baseline.
func BenchmarkEngineShard(b *testing.B) {
	set, err := workload.RandomGen(workload.PaperDefaults(10, true), rand.New(rand.NewSource(29)))
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Optimize(set, agg.Min, core.Options{Factors: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, agg.Min, plan.Factored)
	if err != nil {
		b.Fatal(err)
	}
	var keys []uint64
	for k := uint64(0); k < 64; k++ {
		if (k*fibMul>>32)%2 == 0 {
			keys = append(keys, k)
		}
	}
	var buf stream.RunBuffer
	r, err := New(p, &buf)
	if err != nil {
		b.Fatal(err)
	}
	const ticks = 128
	rng := rand.New(rand.NewSource(1))
	batch := make([]stream.Event, 0, ticks*len(keys))
	for tick := range int64(ticks) {
		for _, k := range keys {
			batch = append(batch, stream.Event{Time: tick, Key: k, Value: float64(rng.Intn(1000))})
		}
	}
	step := func() {
		r.Process(batch)
		r.Advance(batch[len(batch)-1].Time)
		buf.Reset()
		for i := range batch {
			batch[i].Time += ticks
		}
	}
	for range 8 { // warm: key table, spans, scratch
		step()
	}
	b.ResetTimer()
	for range b.N {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/event")
}
