package engine

import (
	"math/rand/v2"

	"factorwindows/internal/stream"
)

// keyTable assigns dense canonical slots to group keys, shared by every
// operator of a plan so sub-aggregate slots mean the same thing
// everywhere. Slots number keys in order of first appearance, whatever
// the index's hash does, so runs, snapshots and exports never depend on
// it.
//
// The key → slot index is owned open addressing, Trill's grouping shape:
// a power-of-two array of entries, at most half full, probed linearly
// from a multiply-shift hash (Dietzfelbinger et al., 1997) of the key —
// the product's top bits. A hit is one multiply, one shift and usually
// one entry compare, where a Go map lookup is a runtime call.
type keyTable struct {
	keys []uint64 // slot → key

	index []keyEntry
	mul   uint64 // the hash multiplier: fibMul until a redraw
	shift uint8  // 64 − log2(len(index))

	// draw supplies redrawn multipliers; nil draws from math/rand/v2's
	// global source. Tests seed one to replay a redraw sequence.
	draw    *rand.Rand
	redraws int // multiplier redraws, for tests
}

// keyEntry is one index entry; slot holds the key's slot + 1, so the
// zero entry is empty.
type keyEntry struct {
	key  uint64
	slot int32
}

// fibMul is the starting multiplier, the Fibonacci constant ShardOf
// hashes with: it spreads sequential and clustered key spaces evenly,
// and the index reads the product's top bits, which ShardOf's bit 32
// does not reach below a 2³¹-entry table.
const fibMul = 0x9e3779b97f4a7c15

// maxProbe bounds every entry's distance from its home entry. Keys the
// multiplier spreads stay far below it at a quarter full; a table that
// reaches it at that load holds keys colliding under the multiplier —
// hostile ones, such as multiples of fibMul's inverse, which all share
// one home — and redraws the multiplier at random, restoring the
// per-table seeding a Go map has.
const maxProbe = 32

// minIndex is the first index's entry count.
const minIndex = 16

// lookup returns key's slot, if it has one.
func (t *keyTable) lookup(key uint64) (int32, bool) {
	if len(t.index) == 0 {
		return 0, false
	}
	mask := uint64(len(t.index) - 1)
	for i := key * t.mul >> t.shift; ; i = (i + 1) & mask {
		e := &t.index[i]
		if e.key == key && e.slot != 0 {
			return e.slot - 1, true
		}
		if e.slot == 0 {
			return 0, false
		}
	}
}

// appendSlots appends each event's slot to dst, assigning the next
// slots to keys on their first appearance. It is lookup's probe with the
// index held in locals across the batch, reloaded only after an add:
// the engine's pre-pass runs it once per event.
func (t *keyTable) appendSlots(dst []int32, events []stream.Event) []int32 {
	if len(t.index) == 0 {
		t.rebuild(minIndex)
	}
	index, mul, shift := t.index, t.mul, t.shift
	mask := uint64(len(index) - 1)
	for i := range events {
		key := events[i].Key
		for j := key * mul >> shift; ; j = (j + 1) & mask {
			e := &index[j]
			if e.key == key && e.slot != 0 {
				dst = append(dst, e.slot-1)
				break
			}
			if e.slot == 0 {
				dst = append(dst, t.add(key))
				index, mul, shift = t.index, t.mul, t.shift
				mask = uint64(len(index) - 1)
				break
			}
		}
	}
	return dst
}

// add assigns key, which has no slot yet, the next one. The index
// doubles past half full; an entry placed further than maxProbe from its
// home doubles it too while it is over a quarter full, and past that
// redraws the multiplier — so no probe run ever exceeds maxProbe.
func (t *keyTable) add(key uint64) int32 {
	s := int32(len(t.keys))
	t.keys = append(t.keys, key)
	var far int
	if 2*len(t.keys) > len(t.index) {
		far = t.rebuild(max(2*len(t.index), minIndex))
	} else {
		far = t.place(key, s)
	}
	for far > maxProbe {
		if 4*len(t.keys) > len(t.index) {
			far = t.rebuild(2 * len(t.index))
			continue
		}
		// A random odd multiplier: the distinct keys then collide only as
		// often as multiply-shift allows, so this ends after a redraw or
		// two however the keys were chosen.
		if t.draw != nil {
			t.mul = t.draw.Uint64() | 1
		} else {
			t.mul = rand.Uint64() | 1
		}
		t.redraws++
		far = t.rebuild(len(t.index))
	}
	return s
}

// place stores key at slot s in the first empty entry of its probe run
// and returns that entry's distance from home.
func (t *keyTable) place(key uint64, s int32) int {
	mask := uint64(len(t.index) - 1)
	d := 0
	for i := key * t.mul >> t.shift; ; i = (i + 1) & mask {
		if t.index[i].slot == 0 {
			t.index[i] = keyEntry{key: key, slot: s + 1}
			return d
		}
		d++
	}
}

// rebuild re-indexes every slot into a fresh index of size entries (a
// power of two) under the current multiplier and returns the longest
// distance of an entry from its home.
func (t *keyTable) rebuild(size int) int {
	if t.mul == 0 {
		t.mul = fibMul
	}
	t.index = make([]keyEntry, size)
	t.shift = 64
	for n := size; n > 1; n >>= 1 {
		t.shift--
	}
	far := 0
	for s, key := range t.keys {
		far = max(far, t.place(key, int32(s)))
	}
	return far
}
