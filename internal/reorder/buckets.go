package reorder

import (
	"math/bits"
	"slices"

	"factorwindows/internal/stream"
)

// tickBuckets holds the pending events in append-only buckets, one per
// occupied tick. A push is a table probe and an append; a tick costs a
// heap operation once when it is first occupied and once when it
// drains, and a bucket is sorted by key once, as it drains. Every part
// is sized by the ticks actually occupied — never by the disorder
// bound — so a huge bound over sparse ticks costs what its events cost.
// Drained buckets are recycled, which keeps a steady disordered stream
// allocation-free.
type tickBuckets struct {
	slots []tickSlot       // open-addressed tick table, power-of-two length, at most half full
	shift uint8            // 64 − log2(len(slots)/tickGroup), for home
	spare [][]stream.Event // drained buckets awaiting reuse
	ticks []int64          // min-heap of the occupied ticks
	n     int              // events held
}

// tickSlot is one entry of the tick table: an occupied tick and its
// bucket, events in arrival order. A nil bucket marks an empty slot.
type tickSlot struct {
	tick int64
	es   []stream.Event
}

func (p *tickBuckets) len() int { return p.n }

// minTick is the oldest occupied tick; the buffer must not be empty.
func (p *tickBuckets) minTick() int64 { return p.ticks[0] }

// tickGroup consecutive ticks share one run of adjacent slots.
const tickGroup = 8

// home is tick's preferred slot. Groups of tickGroup consecutive ticks
// are placed by Fibonacci hashing, which spreads dense runs and regular
// strides (one event every 1000 ticks) alike; within a group ticks sit
// side by side, so the ticks being filled near the watermark and the
// ticks draining at the horizon each touch a few cache lines however
// many ticks are occupied.
func (p *tickBuckets) home(tick int64) int {
	u := uint64(tick)
	return int((u/tickGroup*0x9e3779b97f4a7c15)>>p.shift)*tickGroup | int(u%tickGroup)
}

// find returns the index of tick's table slot, or -1 when the tick is
// unoccupied.
func (p *tickBuckets) find(tick int64) int {
	if len(p.slots) == 0 {
		return -1
	}
	mask := len(p.slots) - 1
	for i := p.home(tick); p.slots[i].es != nil; i = (i + 1) & mask {
		if p.slots[i].tick == tick {
			return i
		}
	}
	return -1
}

// push appends e to its tick's bucket, opening the bucket if the tick
// was unoccupied.
func (p *tickBuckets) push(e stream.Event) {
	p.n++
	if i := p.find(e.Time); i >= 0 {
		p.slots[i].es = append(p.slots[i].es, e)
		return
	}
	p.open(e)
}

// open occupies e's tick with a recycled (or new) bucket holding e.
func (p *tickBuckets) open(e stream.Event) {
	if 2*(len(p.ticks)+1) > len(p.slots) {
		p.growSlots()
	}
	var es []stream.Event
	if k := len(p.spare); k > 0 {
		es, p.spare = p.spare[k-1], p.spare[:k-1]
	}
	p.insertSlot(tickSlot{tick: e.Time, es: append(es, e)})

	p.ticks = append(p.ticks, e.Time)
	p.siftUp(len(p.ticks)-1, e.Time)
}

// siftUp places tick at or above heap position i, whose current content
// is dead, moving larger ancestors down.
func (p *tickBuckets) siftUp(i int, tick int64) {
	for i > 0 {
		parent := (i - 1) / 2
		if p.ticks[parent] <= tick {
			break
		}
		p.ticks[i] = p.ticks[parent]
		i = parent
	}
	p.ticks[i] = tick
}

func (p *tickBuckets) insertSlot(s tickSlot) {
	mask := len(p.slots) - 1
	i := p.home(s.tick)
	for p.slots[i].es != nil {
		i = (i + 1) & mask
	}
	p.slots[i] = s
}

// growSlots doubles the tick table.
func (p *tickBuckets) growSlots() {
	old := p.slots
	p.slots = make([]tickSlot, max(2*tickGroup, 2*len(old)))
	p.shift = uint8(64 - bits.TrailingZeros(uint(len(p.slots)/tickGroup)))
	for _, s := range old {
		if s.es != nil {
			p.insertSlot(s)
		}
	}
}

// removeSlot frees tick's table entry and returns its bucket. Later
// entries of the probe run shift back over the gap, so lookups never
// need tombstones and the table never degrades under churn.
func (p *tickBuckets) removeSlot(tick int64) []stream.Event {
	mask := len(p.slots) - 1
	i := p.find(tick)
	es := p.slots[i].es
	for j := (i + 1) & mask; p.slots[j].es != nil; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home lies
		// cyclically within (i, j].
		if h := p.home(p.slots[j].tick); (j-h)&mask >= (j-i)&mask {
			p.slots[i] = p.slots[j]
			i = j
		}
	}
	p.slots[i] = tickSlot{}
	return es
}

// popMin appends the oldest occupied tick's events to out, sorted by
// key with equal keys in arrival order, and recycles the bucket.
func (p *tickBuckets) popMin(out []stream.Event) []stream.Event {
	tick := p.ticks[0]
	n := len(p.ticks) - 1
	last := p.ticks[n]
	p.ticks = p.ticks[:n]
	if n > 0 {
		// The displaced last tick is among the newest and belongs near
		// the bottom, so walk the hole at the root down to a leaf along
		// the smaller children — one comparison and one move a level,
		// where a textbook sift-down compares twice and swaps — and sift
		// the tick up from there, which rarely moves it.
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if r := c + 1; r < n && p.ticks[r] < p.ticks[c] {
				c = r
			}
			p.ticks[i] = p.ticks[c]
			i = c
		}
		p.siftUp(i, last)
	}

	es := p.removeSlot(tick)
	at := len(out)
	out = append(out, es...)
	sortByKey(out[at:], es) // the drained bucket doubles as scratch space
	p.n -= len(es)
	p.spare = append(p.spare, es[:0])
	return out
}

// appendPending appends every held event to dst in tick order, arrival
// order within a tick — the State encoding — without disturbing the
// buffer.
func (p *tickBuckets) appendPending(dst []stream.Event) []stream.Event {
	ticks := slices.Clone(p.ticks)
	slices.Sort(ticks)
	for _, tick := range ticks {
		dst = append(dst, p.slots[p.find(tick)].es...)
	}
	return dst
}

// sortRun is the run length mergeSortByKey insertion-sorts before
// merging.
const sortRun = 16

// radixPerPass is the bucket size, per radix pass, from which sortByKey
// drains by radix rather than by merging: a bucket of n events whose
// keys vary in p bytes is radix sorted when n ≥ radixPerPass·p. It is
// the crossover BenchmarkSortByKey measured on a 2-core x86-64 VM, in
// ns/event, merge → radix:
//
//	keys per bucket   12-bit keys   20-bit keys   64-bit keys
//	             40     15 → 30       15 → 43       15 → 108
//	            128     22 → 16       23 → 24       21 → 56
//	            512     63 → 14       57 → 19       55 → 49
//	          4,096     96 → 17       83 → 19       90 → 51
const radixPerPass = 64

// sortByKey stably sorts es by Key, using tmp (same length) as scratch.
// One tick of a shuffled feed is a few hundred 24-byte events, and
// stability is what keeps duplicate (Time, Key) events in arrival order.
// An already-sorted bucket costs one scan; otherwise the key bytes that
// vary across the bucket (those set in the OR of k ^ k₀) pick the radix
// passes, and radixPerPass picks radix or merge.
func sortByKey(es, tmp []stream.Event) {
	n := len(es)
	for i := 1; i < n; i++ {
		if es[i].Key < es[i-1].Key {
			var diff uint64
			k0 := es[0].Key
			for _, e := range es[1:] {
				diff |= e.Key ^ k0
			}
			if n >= radixPerPass*varyingBytes(diff) {
				radixSortByKey(es, tmp, diff)
			} else {
				mergeSortByKey(es, tmp)
			}
			return
		}
	}
}

// varyingBytes counts the nonzero bytes of diff: the radix passes a
// bucket whose keys differ from one another in diff's bits needs.
func varyingBytes(diff uint64) int {
	n := 0
	for ; diff != 0; diff >>= 8 {
		if diff&0xFF != 0 {
			n++
		}
	}
	return n
}

// radixSortByKey is an LSD radix sort on the key bytes set in diff, one
// 256-entry count and one stable scatter a pass, ping-ponging between
// es and tmp.
func radixSortByKey(es, tmp []stream.Event, diff uint64) {
	src, dst := es, tmp[:len(es)]
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if diff>>shift&0xFF == 0 {
			continue
		}
		var count [256]int
		for i := range src {
			count[byte(src[i].Key>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := byte(src[i].Key >> shift)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}

// mergeSortByKey stably sorts es by Key, using tmp (same length) as
// merge space: insertion-sorted runs, then bottom-up merges ping-ponging
// between the two slices. On small buckets this beats both a radix pass
// and a comparison-function sort, which pays a call per comparison.
func mergeSortByKey(es, tmp []stream.Event) {
	n := len(es)
	for lo := 0; lo < n; lo += sortRun {
		run := es[lo:min(lo+sortRun, n)]
		for i := 1; i < len(run); i++ {
			e := run[i]
			j := i
			for ; j > 0 && run[j-1].Key > e.Key; j-- {
				run[j] = run[j-1]
			}
			run[j] = e
		}
	}
	src, dst := es, tmp[:n]
	for w := sortRun; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if src[j].Key < src[i].Key {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}
