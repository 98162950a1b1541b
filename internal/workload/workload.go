// Package workload generates the window sets and event streams of the
// paper's evaluation (Section V-A):
//
//   - RandomGen (Algorithm 6): windows drawn from seed ranges/slides with
//     a multiplier, deliberately avoiding r = r0 so that the seed itself
//     remains available as a factor window;
//   - SequentialGen: the "sequential pattern" window sets observed in
//     production (ranges 2·r0, 3·r0, ..., like Figure 1's 20/30/40 min);
//   - Synthetic streams with events arriving at a constant pace
//     (Synthetic-1M / Synthetic-10M);
//   - A DEBS-2012-like manufacturing-sensor stream standing in for the
//     Real-32M dataset (see DESIGN.md for the substitution rationale).
//
// All generation is deterministic given the seed.
package workload

import (
	"fmt"
	"math/rand"

	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// GenConfig carries the window-set generator parameters of Section V-B.
type GenConfig struct {
	// N is the window-set size |W|.
	N int
	// SeedSlides is the "seed" slide list S (hopping windows only).
	SeedSlides []int64
	// SeedRanges is the "seed" range list R (tumbling windows only).
	SeedRanges []int64
	// Ks and Kr are the multipliers k_s and k_r.
	Ks, Kr int64
	// Tumbling selects tumbling (true) or hopping (false) windows.
	Tumbling bool
}

// PaperDefaults returns the paper's parameters: S = {5, 10, 20},
// R = {2, 5, 10}, ks = kr = 50.
func PaperDefaults(n int, tumbling bool) GenConfig {
	return GenConfig{
		N:          n,
		SeedSlides: []int64{5, 10, 20},
		SeedRanges: []int64{2, 5, 10},
		Ks:         50,
		Kr:         50,
		Tumbling:   tumbling,
	}
}

// RandomGen implements Algorithm 6: each window is generated
// independently. For tumbling windows a seed range r0 is drawn from the
// seed list and r is drawn uniformly from {2·r0, ..., kr·r0}; r = r0 is
// deliberately excluded so the optimizer can rediscover W(r0, r0) as a
// factor window. For hopping windows the slide is drawn the same way from
// the seed slides and r = 2s.
func RandomGen(cfg GenConfig, rng *rand.Rand) (*window.Set, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	set := &window.Set{}
	for set.Len() < cfg.N {
		var w window.Window
		if cfg.Tumbling {
			r0 := cfg.SeedRanges[rng.Intn(len(cfg.SeedRanges))]
			r := r0 * (2 + rng.Int63n(cfg.Kr-1)) // uniform in {2r0, ..., kr·r0}
			w = window.Tumbling(r)
		} else {
			s0 := cfg.SeedSlides[rng.Intn(len(cfg.SeedSlides))]
			s := s0 * (2 + rng.Int63n(cfg.Ks-1))
			w = window.Hopping(2*s, s)
		}
		if !set.Contains(w) {
			if err := set.Add(w); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

// SequentialGen implements the sequential window-set generator: ranges
// (or slides) follow the arithmetic pattern 2·x0, 3·x0, ..., (N+1)·x0 off
// a single random seed x0, capturing the dashboards-with-increasing-
// periods pattern of Figure 1.
func SequentialGen(cfg GenConfig, rng *rand.Rand) (*window.Set, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	set := &window.Set{}
	if cfg.Tumbling {
		r0 := cfg.SeedRanges[rng.Intn(len(cfg.SeedRanges))]
		for i := int64(2); set.Len() < cfg.N; i++ {
			if i > cfg.Kr {
				return nil, fmt.Errorf("workload: sequential range multiplier exceeded kr=%d", cfg.Kr)
			}
			if err := set.Add(window.Tumbling(i * r0)); err != nil {
				return nil, err
			}
		}
		return set, nil
	}
	s0 := cfg.SeedSlides[rng.Intn(len(cfg.SeedSlides))]
	for i := int64(2); set.Len() < cfg.N; i++ {
		if i > cfg.Ks {
			return nil, fmt.Errorf("workload: sequential slide multiplier exceeded ks=%d", cfg.Ks)
		}
		s := i * s0
		if err := set.Add(window.Hopping(2*s, s)); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func checkConfig(cfg GenConfig) error {
	switch {
	case cfg.N <= 0:
		return fmt.Errorf("workload: window-set size %d must be positive", cfg.N)
	case cfg.Tumbling && len(cfg.SeedRanges) == 0:
		return fmt.Errorf("workload: no seed ranges")
	case !cfg.Tumbling && len(cfg.SeedSlides) == 0:
		return fmt.Errorf("workload: no seed slides")
	case cfg.Kr < 2 || cfg.Ks < 2:
		return fmt.Errorf("workload: multipliers must be ≥ 2")
	}
	seeds, k := cfg.SeedSlides, cfg.Ks
	if cfg.Tumbling {
		seeds, k = cfg.SeedRanges, cfg.Kr
	}
	if n := distinctDraws(seeds, k, cfg.N); n < cfg.N {
		// RandomGen would redraw duplicates forever.
		return fmt.Errorf("workload: window-set size %d exceeds the %d distinct windows the seeds and multiplier %d can draw", cfg.N, n, k)
	}
	return nil
}

// distinctDraws counts the distinct products seed·m, 2 ≤ m ≤ k, over the
// seeds — the windows RandomGen can draw — stopping once it reaches
// enough. With k−1 ≥ enough one nonzero seed alone draws that many.
func distinctDraws(seeds []int64, k int64, enough int) int {
	if k-1 >= int64(enough) {
		for _, s := range seeds {
			if s != 0 {
				return enough
			}
		}
	}
	seen := make(map[int64]struct{})
	for _, s := range seeds {
		for m := int64(2); m <= k; m++ {
			seen[s*m] = struct{}{}
		}
	}
	return len(seen)
}

// StreamConfig describes a synthetic event stream.
type StreamConfig struct {
	// Events is the total number of events to generate.
	Events int
	// Keys is the number of distinct device keys, round-robined.
	Keys int
	// EventsPerTick sets the constant arrival pace (η). The timestamp
	// advances after every EventsPerTick events.
	EventsPerTick int
	// Seed drives the value generator.
	Seed int64
}

// Synthetic generates a constant-pace stream of Events random integer
// readings (values in [0, 1000), exactly representable in float64 so that
// different aggregation orders agree bit-for-bit).
func Synthetic(cfg StreamConfig) []stream.Event {
	cfg = normalize(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	events := make([]stream.Event, cfg.Events)
	for i := range events {
		events[i] = stream.Event{
			Time:  int64(i / cfg.EventsPerTick),
			Key:   uint64(i % cfg.Keys),
			Value: float64(rng.Intn(1000)),
		}
	}
	return events
}

// OrderSensitive is Synthetic with non-integer values (uniform in
// [0, 1000)): float SUM/AVG/STDEV round differently when regrouped, and
// at ≥ 4·k values per key per instance (r·EventsPerTick/Keys for range
// r; KLL's k = 200) PERCENTILE sketches compact. The state-movement
// suites share it: a move must not change one bit of the results.
func OrderSensitive(cfg StreamConfig) []stream.Event {
	events := Synthetic(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range events {
		events[i].Value = rng.Float64() * 1000
	}
	return events
}

// DEBSLike generates a manufacturing-sensor stream standing in for the
// DEBS 2012 Grand Challenge data used by the paper (Real-32M): one
// "electrical power main-phase" style channel with slow level shifts and
// bounded noise, keyed by sensor id. Values remain small integers so all
// plans agree exactly.
func DEBSLike(cfg StreamConfig) []stream.Event {
	cfg = normalize(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	events := make([]stream.Event, cfg.Events)
	levels := make([]int, cfg.Keys)
	for k := range levels {
		levels[k] = 4000 + rng.Intn(2000)
	}
	for i := range events {
		key := i % cfg.Keys
		// Occasional regime change: the mf01 channel in the original data
		// shows step changes as the equipment cycles.
		if rng.Intn(5000) == 0 {
			levels[key] = 3000 + rng.Intn(4000)
		}
		v := levels[key] + rng.Intn(201) - 100
		events[i] = stream.Event{
			Time:  int64(i / cfg.EventsPerTick),
			Key:   uint64(key),
			Value: float64(v),
		}
	}
	return events
}

func normalize(cfg StreamConfig) StreamConfig {
	if cfg.Events < 0 {
		cfg.Events = 0
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 1
	}
	if cfg.EventsPerTick <= 0 {
		cfg.EventsPerTick = 1
	}
	return cfg
}

// Ticks returns the number of distinct timestamps the stream spans.
func Ticks(events []stream.Event) int64 {
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].Time + 1
}
