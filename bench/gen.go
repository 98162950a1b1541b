package main

import (
	"math/rand"
	"strconv"

	"factorwindows/internal/stream"
	"factorwindows/internal/wire"
)

// inputs is one seeded cycle of events in arrival order, replayed
// endlessly with timestamps shifted by the cycle's tick span. The server
// under test only ever sees the encoded bodies made from it.
type inputs struct {
	events []stream.Event
	span   int64 // ticks one cycle covers
	cycle  int   // how many spans the times are currently shifted by
	next   int   // next batch index within the cycle
	codec  codec
	body   []byte // reused encode buffer
}

// generate builds the cycle. Every tick carries eventsPerTick readings:
// the key universe is cut into keys/eventsPerTick groups taken in turn,
// so with 64 keys at 64 per tick every key reports every tick, and with
// 4096 keys at 512 per tick each key reports every 8th tick. The seed
// drives the values, the key order inside a tick, and the shuffle.
func generate(s spec, seed int64, n int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	keys := rng.Perm(s.keys)
	groups := s.keys / s.eventsPerTick
	events := make([]stream.Event, n)
	for i := range events {
		tick := i / s.eventsPerTick
		slot := i % s.eventsPerTick
		if slot == 0 {
			g := keys[(tick%groups)*s.eventsPerTick:][:s.eventsPerTick]
			rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
		}
		events[i] = stream.Event{
			Time:  int64(tick),
			Key:   uint64(keys[(tick%groups)*s.eventsPerTick+slot]),
			Value: float64(rng.Intn(1000)), // integers: every aggregation order agrees bit for bit
		}
	}
	if s.shuffleTicks > 0 {
		block := s.shuffleTicks * s.eventsPerTick
		for off := 0; off < n; off += block {
			b := events[off:min(off+block, n)]
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		}
	}
	return &inputs{
		events: events,
		span:   int64((n + s.eventsPerTick - 1) / s.eventsPerTick),
		codec:  s.codec,
	}
}

func (in *inputs) batches() int { return len(in.events) / batchEvents }

// rewind restores the unshifted cycle so another pass sees the same
// stream from tick 0.
func (in *inputs) rewind() {
	in.shift(-in.cycle)
	in.next = 0
}

func (in *inputs) shift(cycles int) {
	if cycles == 0 {
		return
	}
	d := int64(cycles) * in.span
	for i := range in.events {
		in.events[i].Time += d
	}
	in.cycle += cycles
}

// nextBatch returns the next batch in arrival order, wrapping into the
// next (time-shifted) replay of the cycle. The slice aliases the cycle.
func (in *inputs) nextBatch() []stream.Event {
	if in.next == in.batches() {
		in.shift(1)
		in.next = 0
	}
	b := in.events[in.next*batchEvents:][:batchEvents]
	in.next++
	return b
}

// encode renders one batch as a request body in the workload's codec,
// into the reused buffer. Callers keep it outside every timed span.
func (in *inputs) encode(events []stream.Event) []byte {
	buf := in.body[:0]
	if in.codec == codecBinary {
		buf = wire.AppendEventFrame(buf, events)
	} else {
		for i := range events {
			buf = append(buf, `{"time":`...)
			buf = strconv.AppendInt(buf, events[i].Time, 10)
			buf = append(buf, `,"key":`...)
			buf = strconv.AppendUint(buf, events[i].Key, 10)
			buf = append(buf, `,"value":`...)
			buf = strconv.AppendInt(buf, int64(events[i].Value), 10)
			buf = append(buf, '}', '\n')
		}
	}
	in.body = buf
	return buf
}
