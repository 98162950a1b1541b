package reorder

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"factorwindows/internal/stream"
)

// keyedBucket is n events whose keys draw on the low width bits (width
// 0: keys that differ only in the top byte), shaped as named — a
// duplicate-heavy bucket draws from eight such keys; Value is the
// arrival index, so a stable sort is checkable by whole events.
func keyedBucket(rng *rand.Rand, n, width int, shape string) []stream.Event {
	es := make([]stream.Event, n)
	base := rng.Uint64()
	key := func() uint64 {
		if width == 0 {
			return base&(1<<56-1) | uint64(rng.Intn(256))<<56
		}
		return rng.Uint64() >> (64 - width)
	}
	var pool [8]uint64
	for i := range pool {
		pool[i] = key()
	}
	for i := range es {
		k := key()
		if shape == "duplicates" {
			k = pool[rng.Intn(len(pool))]
		}
		es[i] = stream.Event{Time: 5, Key: k, Value: float64(i)}
	}
	switch shape {
	case "sorted":
		slices.SortStableFunc(es, byKey)
	case "reversed":
		slices.SortStableFunc(es, func(a, b stream.Event) int { return -byKey(a, b) })
	}
	return es
}

func byKey(a, b stream.Event) int { return cmp.Compare(a.Key, b.Key) }

// TestSortByKeyMatchesStableSort pins the drain sort to a stable
// comparison sort on both sides of the radix crossover: bucket sizes
// from 0 to 5,000, key widths from 1 to 64 bits and keys differing only
// in their top byte, with shuffled, duplicate-heavy, already-sorted and
// reversed buckets.
func TestSortByKeyMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 33, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256, 511, 512, 513, 1000, 4096, 5000} {
		for _, width := range []int{0, 1, 7, 8, 9, 12, 16, 20, 24, 33, 48, 62, 63, 64} {
			for _, shape := range []string{"shuffled", "duplicates", "sorted", "reversed"} {
				es := keyedBucket(rng, n, width, shape)
				want := slices.Clone(es)
				slices.SortStableFunc(want, byKey)
				tmp := slices.Clone(es)
				sortByKey(es, tmp)
				if !slices.Equal(es, want) {
					t.Fatalf("n=%d width=%d %s: sortByKey disagrees with a stable sort", n, width, shape)
				}
			}
		}
	}
}

// BenchmarkSortByKey measures the drain sort, and each of its two
// algorithms forced, on one shuffled tick bucket — the grid behind
// radixPerPass.
func BenchmarkSortByKey(b *testing.B) {
	for _, n := range []int{40, 128, 512, 4096} {
		for _, width := range []int{12, 20, 64} {
			rng := rand.New(rand.NewSource(1))
			src := keyedBucket(rng, n, width, "shuffled")
			var diff uint64
			for _, e := range src {
				diff |= e.Key ^ src[0].Key
			}
			for _, alg := range []struct {
				name string
				sort func(es, tmp []stream.Event)
			}{
				{"sortByKey", sortByKey},
				{"merge", mergeSortByKey},
				{"radix", func(es, tmp []stream.Event) { radixSortByKey(es, tmp, diff) }},
			} {
				b.Run(fmt.Sprintf("n=%d/bits=%d/%s", n, width, alg.name), func(b *testing.B) {
					es, tmp := make([]stream.Event, n), make([]stream.Event, n)
					for range b.N {
						copy(es, src)
						alg.sort(es, tmp)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
				})
			}
		}
	}
}
