package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/workload"
)

// exportBytes is the canonical export of r at horizon, gob-encoded so
// two exports compare bit for bit.
func exportBytes(t testing.TB, r *Runner, horizon int64) []byte {
	t.Helper()
	ex, err := r.exportCanonical(horizon)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ex); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportOfRestoredSnapshotIsExact is why one state form suffices: a
// re-plan canonicalises the live engine in process but, off a wire, the
// engine a snapshot restores — so the export of Restore(Snapshot()) must
// be bit-identical to the live runner's export. It runs over the three
// plan shapes × every shareable and sketch-backed function, at random
// cuts of order-sensitive data, half of them after an earlier migration
// left frozen spans open.
func TestExportOfRestoredSnapshotIsExact(t *testing.T) {
	set := window.MustSet(window.Tumbling(4), window.Hopping(8, 4), window.Tumbling(8), window.Tumbling(16))
	events := workload.OrderSensitive(workload.StreamConfig{Events: 1600, Keys: 5, EventsPerTick: 20, Seed: 41})
	rng := rand.New(rand.NewSource(4141))
	fns := append(agg.ShareableFns(), agg.SketchFns()...)
	for _, fn := range fns {
		variants := planVariants(t, set, fn)
		for vi, p := range variants {
			for _, migrated := range []bool{false, true} {
				label := fmt.Sprintf("%v/variant %d/migrated %t", fn, vi, migrated)
				cut := 100 + rng.Intn(len(events)-200)
				r, err := New(p, &stream.CountingSink{})
				if err != nil {
					t.Fatal(err)
				}
				if migrated {
					first := cut / 2
					from, err := New(variants[(vi+1)%len(variants)], &stream.CountingSink{})
					if err != nil {
						t.Fatal(err)
					}
					from.Process(events[:first])
					if r, _, err = Resume(p, &stream.CountingSink{}, Quiescent(from), events[first].Time); err != nil {
						t.Fatal(err)
					}
					r.Process(events[first:cut])
				} else {
					r.Process(events[:cut])
				}
				horizon := events[cut].Time
				blob, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(p, &stream.CountingSink{}, blob)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(exportBytes(t, restored, horizon), exportBytes(t, r, horizon)) {
					t.Errorf("%s: cut %d: the restored snapshot exports other bytes than the live runner", label, cut)
				}
			}
		}
	}
}

// FuzzResume feeds arbitrary bytes to Resume onto fixed plans — the path
// a hello's state takes on a shard worker, where a record of another
// plan is rebuilt from its own description. Seeds: FWSNAP4 snapshots of
// the three plan shapes of one window set (the factored one holding
// frozen spans after a migration) and their truncations, plus records
// whose plan has an out-of-range parent, a cycle, a non-covering edge,
// or a holistic function that shares. The contract: Resume never
// panics, so every failure is an error; every success resumes an engine
// that processes a batch and flushes — or stops on an input-contract
// violation, which the engine reports by panicking with its own message
// and the serving layers contain as a failed shard.
func FuzzResume(f *testing.F) {
	set := window.MustSet(window.Tumbling(4), window.Hopping(8, 4), window.Tumbling(8), window.Tumbling(16))
	sum := planVariants(f, set, agg.Sum)
	median, err := plan.NewOriginal(set, agg.Median)
	if err != nil {
		f.Fatal(err)
	}
	targets := []*plan.Plan{sum[2], median}
	events := workload.OrderSensitive(workload.StreamConfig{Events: 300, Keys: 4, EventsPerTick: 6, Seed: 5})
	const horizon = 50

	snapshot := func(r *Runner) []byte {
		blob, err := r.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	var seeds [][]byte
	for _, p := range []*plan.Plan{sum[0], sum[1], median} {
		r, err := New(p, &stream.CountingSink{})
		if err != nil {
			f.Fatal(err)
		}
		r.Process(events)
		seeds = append(seeds, snapshot(r))
	}
	from, err := New(sum[0], &stream.CountingSink{})
	if err != nil {
		f.Fatal(err)
	}
	from.Process(events[:150])
	frozen, _, err := Resume(sum[2], &stream.CountingSink{}, Quiescent(from), events[150].Time)
	if err != nil {
		f.Fatal(err)
	}
	frozen.Process(events[150:])
	seeds = append(seeds, snapshot(frozen))
	for _, blob := range [][]byte{seeds[0], seeds[1], seeds[3]} {
		if _, n, err := Resume(sum[2], &stream.CountingSink{}, Encoded(blob), horizon); err != nil || n == 0 {
			f.Fatalf("a seed snapshot resumes %d instances: %v", n, err)
		}
	}

	// Records whose plan must not validate, each built from a real one.
	doctored := func(blob []byte, mutate func(*snapshotRecord)) []byte {
		rec, err := decodeSnapshot(blob)
		if err != nil {
			f.Fatal(err)
		}
		mutate(rec)
		return reencode(f, rec)
	}
	sumOriginal, medianOriginal := seeds[0], seeds[2]
	for _, blob := range [][]byte{
		doctored(sumOriginal, func(rec *snapshotRecord) { rec.Nodes[1].Parent = len(rec.Nodes) }),
		doctored(sumOriginal, func(rec *snapshotRecord) { rec.Nodes[0].Parent, rec.Nodes[2].Parent = 2, 0 }),
		// T8 reading T16: T16 does not cover T8.
		doctored(sumOriginal, func(rec *snapshotRecord) { rec.Nodes[2].Parent = 3 }),
		// T16 reading T8: covered, but MEDIAN is holistic.
		doctored(medianOriginal, func(rec *snapshotRecord) { rec.Nodes[3].Parent = 2 }),
	} {
		seeds = append(seeds, blob)
	}
	for _, blob := range seeds {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
	}

	batch := []stream.Event{{Time: horizon, Key: 1, Value: 0.5}, {Time: horizon + 3, Key: 9, Value: 2}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range targets {
			r, _, err := Resume(p, &stream.CountingSink{}, Encoded(data), horizon)
			if err != nil {
				continue
			}
			processAndFlush(t, r, batch)
		}
	})
}

// processAndFlush runs a batch through a resumed engine and flushes it.
// An input-contract panic is the engine's own report of state it cannot
// continue; anything else (a runtime error) fails.
func processAndFlush(t *testing.T, r *Runner, batch []stream.Event) {
	defer func() {
		if p := recover(); p != nil {
			if msg, ok := p.(string); !ok || !strings.HasPrefix(msg, "engine: ") {
				t.Fatalf("resumed engine failed outside its input contract: %v", p)
			}
		}
	}()
	r.Process(batch)
	r.Close()
}
