package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

func TestRandomGenTumbling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := PaperDefaults(10, true)
	set, err := RandomGen(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 10 {
		t.Fatalf("size = %d", set.Len())
	}
	for _, w := range set.Windows() {
		if !w.IsTumbling() {
			t.Fatalf("%v not tumbling", w)
		}
		// r must be derivable as m×r0 for some seed r0 with m in
		// {2..kr}: Algorithm 6 line 5 excludes m = 1 for the drawn seed.
		found := false
		minSeed := cfg.SeedRanges[0]
		for _, r0 := range cfg.SeedRanges {
			if r0 < minSeed {
				minSeed = r0
			}
			if w.Range%r0 == 0 && w.Range >= 2*r0 && w.Range <= cfg.Kr*r0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("range %d not derivable from seeds", w.Range)
		}
		if w.Range < 2*minSeed {
			t.Fatalf("range %d below 2×min seed; m=1 draw leaked through", w.Range)
		}
	}
}

func TestRandomGenHopping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	set, err := RandomGen(PaperDefaults(10, false), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range set.Windows() {
		if w.Range != 2*w.Slide {
			t.Fatalf("%v: hopping windows must have r = 2s (Algorithm 6 line 10)", w)
		}
	}
}

func TestRandomGenDeterministic(t *testing.T) {
	a, _ := RandomGen(PaperDefaults(5, true), rand.New(rand.NewSource(7)))
	b, _ := RandomGen(PaperDefaults(5, true), rand.New(rand.NewSource(7)))
	aw, bw := a.Windows(), b.Windows()
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatal("same seed must produce the same window set")
		}
	}
}

func TestSequentialGen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set, err := SequentialGen(PaperDefaults(5, true), rng)
	if err != nil {
		t.Fatal(err)
	}
	ws := set.Sorted()
	r0 := ws[0].Range / 2
	for i, w := range ws {
		if w.Range != r0*int64(i+2) {
			t.Fatalf("sequential pattern broken: %v (r0=%d)", ws, r0)
		}
	}
	seq, err := SequentialGen(PaperDefaults(4, false), rng)
	if err != nil {
		t.Fatal(err)
	}
	hs := seq.Sorted()
	s0 := hs[0].Slide / 2
	for i, w := range hs {
		if w.Slide != s0*int64(i+2) || w.Range != 2*w.Slide {
			t.Fatalf("sequential hopping pattern broken: %v", hs)
		}
	}
}

func TestGenConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := RandomGen(GenConfig{N: 0}, rng); err == nil {
		t.Fatal("N=0 must fail")
	}
	if _, err := RandomGen(GenConfig{N: 3, Tumbling: true, Ks: 50, Kr: 50}, rng); err == nil {
		t.Fatal("no seed ranges must fail")
	}
	if _, err := SequentialGen(GenConfig{N: 3, Tumbling: false, Ks: 50, Kr: 50}, rng); err == nil {
		t.Fatal("no seed slides must fail")
	}
	cfg := PaperDefaults(60, true)
	cfg.Kr = 10
	if _, err := SequentialGen(cfg, rng); err == nil {
		t.Fatal("sequential multiplier overflow must fail")
	}
}

// TestRandomGenRefusesUndrawableSizes: RandomGen redraws duplicates until
// the set is full, so a size above the number of distinct windows the
// config can draw must be refused up front instead of looping forever.
// PaperDefaults draws 113 distinct tumbling ranges and 99 distinct
// hopping slides. Each call runs under a deadline so a hang fails.
func TestRandomGenRefusesUndrawableSizes(t *testing.T) {
	for _, c := range []struct {
		n        int
		tumbling bool
		ok       bool
	}{
		{113, true, true}, {114, true, false},
		{99, false, true}, {100, false, false},
	} {
		done := make(chan error, 1)
		go func() {
			set, err := RandomGen(PaperDefaults(c.n, c.tumbling), rand.New(rand.NewSource(5)))
			if err == nil && set.Len() != c.n {
				err = fmt.Errorf("drew %d windows", set.Len())
			}
			done <- err
		}()
		select {
		case err := <-done:
			if (err == nil) != c.ok {
				t.Errorf("RandomGen(n=%d, tumbling=%t): err = %v, want ok=%t", c.n, c.tumbling, err, c.ok)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("RandomGen(n=%d, tumbling=%t) still running after 10s", c.n, c.tumbling)
		}
	}
}

func TestSyntheticStream(t *testing.T) {
	events := Synthetic(StreamConfig{Events: 100, Keys: 4, EventsPerTick: 4, Seed: 1})
	if len(events) != 100 {
		t.Fatalf("len = %d", len(events))
	}
	if err := stream.Validate(events); err != nil {
		t.Fatal(err)
	}
	if events[3].Time != 0 || events[4].Time != 1 {
		t.Fatalf("pace wrong: %v %v", events[3], events[4])
	}
	if Ticks(events) != 25 {
		t.Fatalf("ticks = %d", Ticks(events))
	}
	// Values integer-valued in [0,1000).
	for _, e := range events {
		if e.Value != float64(int64(e.Value)) || e.Value < 0 || e.Value >= 1000 {
			t.Fatalf("value %v out of contract", e.Value)
		}
	}
	// Determinism.
	again := Synthetic(StreamConfig{Events: 100, Keys: 4, EventsPerTick: 4, Seed: 1})
	for i := range events {
		if events[i] != again[i] {
			t.Fatal("synthetic stream not deterministic")
		}
	}
}

func TestDEBSLikeStream(t *testing.T) {
	events := DEBSLike(StreamConfig{Events: 20000, Keys: 2, EventsPerTick: 2, Seed: 9})
	if err := stream.Validate(events); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Value < 2000 || e.Value > 8000 {
			t.Fatalf("sensor value %v outside plausible band", e.Value)
		}
		if e.Value != float64(int64(e.Value)) {
			t.Fatalf("value %v must be integral", e.Value)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	events := Synthetic(StreamConfig{Events: 10})
	if len(events) != 10 || events[9].Time != 9 || events[9].Key != 0 {
		t.Fatalf("defaults wrong: %v", events)
	}
	if got := Ticks(nil); got != 0 {
		t.Fatalf("Ticks(nil) = %d", got)
	}
}

func TestRandomGenSetsAreValidWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		for _, tumbling := range []bool{true, false} {
			set, err := RandomGen(PaperDefaults(5, tumbling), rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range set.Windows() {
				if err := w.Validate(); err != nil {
					t.Fatalf("invalid window %v: %v", w, err)
				}
			}
			_ = window.MustSet(set.Windows()...) // no duplicates
		}
	}
}
