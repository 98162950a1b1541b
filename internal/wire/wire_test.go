package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"factorwindows/internal/stream"
)

func sampleEvents(n int) []stream.Event {
	evs := make([]stream.Event, n)
	for i := range evs {
		evs[i] = stream.Event{
			Time:  int64(i / 3),
			Key:   uint64(i % 7),
			Value: float64(i)*0.25 - 8,
		}
	}
	if n > 3 {
		// Exercise non-finite and extreme bit patterns: the binary format
		// must round-trip exactly what the text formats cannot carry.
		evs[0].Value = math.NaN()
		evs[1].Value = math.Inf(-1)
		evs[2].Value = -0.0
		evs[3].Value = math.MaxFloat64
	}
	return evs
}

func TestEventFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1024} {
		evs := sampleEvents(n)
		buf := AppendEventFrame(nil, evs)
		f, rest, err := Decode(buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d trailing bytes", n, len(rest))
		}
		if f.Kind != KindEvents || f.Rows() != n {
			t.Fatalf("n=%d: kind=%d rows=%d", n, f.Kind, f.Rows())
		}
		got := f.AppendEvents(nil)
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d events", n, len(got))
		}
		for i := range got {
			want := evs[i]
			if got[i].Time != want.Time || got[i].Key != want.Key ||
				math.Float64bits(got[i].Value) != math.Float64bits(want.Value) {
				t.Fatalf("n=%d row %d: got %+v want %+v", n, i, got[i], want)
			}
			e := f.Event(i)
			if e != got[i] && !(math.IsNaN(e.Value) && math.IsNaN(got[i].Value)) {
				t.Fatalf("n=%d row %d: Event accessor %+v vs AppendEvents %+v", n, i, e, got[i])
			}
		}
	}
}

// widthCase is an event batch whose time and key spans need exactly the
// offset widths tw and kw.
type widthCase struct {
	tw, kw int
	evs    []stream.Event
}

// widthCases covers every width pair at both ends of each width's span
// range.
func widthCases() []widthCase {
	spans := map[int][]uint64{1: {0, 255}, 2: {256, 65535}, 4: {65536, 1<<32 - 1}, 8: {1 << 32, math.MaxUint64}}
	var cases []widthCase
	for _, tw := range []int{1, 2, 4, 8} {
		for _, kw := range []int{1, 2, 4, 8} {
			for j := range 2 {
				// Centre each span in its column's range, so the full-width
				// spans reach MinInt64/MaxInt64 and 0/MaxUint64.
				ts, ks := spans[tw][j], spans[kw][j]
				tlo := 1<<63 + (math.MaxUint64-ts)/2 // int64(tlo) is MinInt64 + the slack
				klo := (math.MaxUint64 - ks) / 2
				evs := []stream.Event{
					{Time: int64(tlo + ts/2), Key: klo, Value: 1},
					{Time: int64(tlo + ts), Key: klo + ks/2, Value: math.NaN()},
					{Time: int64(tlo), Key: klo + ks, Value: math.Copysign(0, -1)},
				}
				cases = append(cases, widthCase{tw, kw, evs})
			}
		}
	}
	return cases
}

// TestEventFrameWidths: each column gets the narrowest width holding its
// span, the frame is exactly that size, and it decodes to the events.
func TestEventFrameWidths(t *testing.T) {
	for _, c := range widthCases() {
		buf := AppendEventFrame([]byte("prefix"), c.evs)
		frame := buf[len("prefix"):]
		if frame[6] != EventVersion || frame[16] != byte(c.tw) || frame[17] != byte(c.kw) {
			t.Fatalf("widths %d/%d: header version %d widths %d/%d", c.tw, c.kw, frame[6], frame[16], frame[17])
		}
		if want := prefixLen + headerLen + eventBases + len(c.evs)*(c.tw+c.kw+colWidth); len(frame) != want {
			t.Fatalf("widths %d/%d: %d bytes, want %d", c.tw, c.kw, len(frame), want)
		}
		f, rest, err := Decode(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("widths %d/%d: %v (rest %d)", c.tw, c.kw, err, len(rest))
		}
		got := f.AppendEvents(nil)
		for i, want := range c.evs {
			if !sameEvent(got[i], want) || !sameEvent(f.Event(i), want) {
				t.Fatalf("widths %d/%d row %d: got %+v / %+v, want %+v", c.tw, c.kw, i, got[i], f.Event(i), want)
			}
		}
	}
}

// TestFixedLayoutFramesDecode: frames in the version-1 layout — three
// fixed 8-byte columns, as every client encoded them before the adaptive
// layout — decode to the same events. The file was written by that
// encoder and is never regenerated.
func TestFixedLayoutFramesDecode(t *testing.T) {
	data, err := os.ReadFile("testdata/events_v1.fwf")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]stream.Event{
		sampleEvents(16),
		{
			{Time: math.MinInt64, Key: math.MaxUint64, Value: math.Float64frombits(0x7ff0000000000001)},
			{Time: math.MaxInt64, Key: 0, Value: math.Float64frombits(0xfff8000000000bad)},
			{Time: 0, Key: 1, Value: math.Copysign(0, -1)},
		},
		nil,
	}
	rest := data
	for i, evs := range want {
		if rest[6] != Version {
			t.Fatalf("frame %d: version %d, want the fixed layout's %d", i, rest[6], Version)
		}
		var f Frame
		f, rest, err = Decode(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got := f.AppendEvents(nil)
		if len(got) != len(evs) {
			t.Fatalf("frame %d: %d events, want %d", i, len(got), len(evs))
		}
		for j := range evs {
			if !sameEvent(got[j], evs[j]) || !sameEvent(f.Event(j), evs[j]) {
				t.Fatalf("frame %d row %d: got %+v, want %+v", i, j, got[j], evs[j])
			}
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestResultFrameRoundTrip(t *testing.T) {
	const n = 17
	const firstSeq = int64(420)
	enc := BeginResultFrame(nil, 9, firstSeq, n)
	for i := 0; i < n; i++ {
		enc.SetRow(i, int64(20+i), int64(5+i), int64(i*5), int64(i*5+20), uint64(i%4), float64(i)+0.5)
	}
	buf := enc.Bytes()
	f, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || f.Kind != KindResults || f.Rows() != n || f.StreamID != 9 || f.Seq != firstSeq {
		t.Fatalf("frame = %+v rest=%d", f, len(rest))
	}
	for i := 0; i < n; i++ {
		seq, rng, slide, start, end, key, value := f.Result(i)
		if seq != firstSeq+int64(i) || rng != int64(20+i) || slide != int64(5+i) ||
			start != int64(i*5) || end != int64(i*5+20) || key != uint64(i%4) || value != float64(i)+0.5 {
			t.Fatalf("row %d: %d %d %d %d %d %d %g", i, seq, rng, slide, start, end, key, value)
		}
	}
}

func TestControlFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"stream":3,"id":"q1"}`)
	buf := AppendControlFrame(nil, 3, payload)
	f, rest, err := Decode(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if f.Kind != KindControl || f.StreamID != 3 || !bytes.Equal(f.Control(), payload) {
		t.Fatalf("frame = %+v control=%q", f, f.Control())
	}
}

// TestDecodeConcatenated confirms Decode walks a buffer holding several
// back-to-back frames, the layout a streaming connection produces.
func TestDecodeConcatenated(t *testing.T) {
	buf := AppendEventFrame(nil, sampleEvents(5))
	buf = AppendControlFrame(buf, 1, []byte("ok"))
	buf = AppendEventFrame(buf, sampleEvents(2))
	var kinds []byte
	rest := buf
	for len(rest) > 0 {
		var f Frame
		var err error
		f, rest, err = Decode(rest)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, f.Kind)
	}
	if !bytes.Equal(kinds, []byte{KindEvents, KindControl, KindEvents}) {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := AppendEventFrame(nil, sampleEvents(4))
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"short prefix", valid[:3], ErrShort},
		{"truncated header", valid[:8], ErrShort},
		{"truncated payload", valid[:len(valid)-1], ErrShort},
		{"bad magic", corrupt(valid, 4, 'X'), ErrMagic},
		{"bad version", corrupt(valid, 6, 99), ErrVersion},
		{"bad kind", corrupt(valid, 7, 42), ErrKind},
		{"undersized length", corrupt(valid, 0, 1), ErrSize},
		{"oversized length", append([]byte{0xff, 0xff, 0xff, 0xff}, valid[4:]...), ErrTooLarge},
		{"row overcount", corrupt(valid, 8, 0xff), ErrSize},
		{"bad time width", corrupt(valid, 16, 3), ErrWidth},
		{"bad key width", corrupt(valid, 17, 0), ErrWidth},
		{"aux beyond widths", corrupt(valid, 18, 1), ErrWidth},
		{"adaptive result frame", corrupt(resultFrame(), 6, EventVersion), ErrVersion},
		{"adaptive control frame", corrupt(AppendControlFrame(nil, 0, []byte("ok")), 6, EventVersion), ErrVersion},
		{"payload short of bases", shortBases(), ErrSize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode(tc.buf)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
		})
	}
}

func resultFrame() []byte {
	enc := BeginResultFrame(nil, 0, 0, 1)
	enc.SetRow(0, 8, 8, 0, 8, 1, 2)
	return enc.Bytes()
}

// shortBases is an adaptive event frame of zero rows whose payload stops
// inside the base words.
func shortBases() []byte {
	b := AppendEventFrame(nil, nil)
	b = b[:len(b)-1]
	binary.LittleEndian.PutUint32(b, uint32(len(b)-prefixLen))
	return b
}

func corrupt(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

func TestReader(t *testing.T) {
	var buf []byte
	batches := [][]stream.Event{sampleEvents(3), sampleEvents(700), sampleEvents(1)}
	for _, b := range batches {
		buf = AppendEventFrame(buf, b)
	}
	fr := NewReader(bytes.NewReader(buf))
	defer fr.Close()
	for i, want := range batches {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := f.AppendEvents(nil); len(got) != len(want) {
			t.Fatalf("frame %d: %d events, want %d", i, len(got), len(want))
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("trailing Next = %v, want io.EOF", err)
	}

	// A stream severed mid-frame is truncation, not a clean EOF.
	fr2 := NewReader(bytes.NewReader(buf[:len(buf)-2]))
	defer fr2.Close()
	fr2.Next()
	fr2.Next()
	if _, err := fr2.Next(); !errors.Is(err, ErrShort) {
		t.Fatalf("severed Next = %v, want ErrShort", err)
	}
}

// TestAppendEventsReuse pins the zero-alloc contract the ingest handler
// relies on: decoding into a warm staging slice allocates nothing.
func TestAppendEventsReuse(t *testing.T) {
	buf := AppendEventFrame(nil, sampleEvents(256))
	f, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]stream.Event, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		batch = f.AppendEvents(batch[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendEvents into warm staging: %v allocs, want 0", allocs)
	}
}

// shapeEvents is one 8,192-row batch in a bench workload's shape: keys
// keys taken perTick a tick in order, integer values. keys 0 gives the
// full-width case, whose times and keys span all 64 bits.
func shapeEvents(keys, perTick int) []stream.Event {
	const rows = 8192
	rng := rand.New(rand.NewSource(1))
	evs := make([]stream.Event, rows)
	for i := range evs {
		if keys == 0 {
			evs[i] = stream.Event{Time: int64(rng.Uint64()), Key: rng.Uint64(), Value: rng.NormFloat64()}
			continue
		}
		evs[i] = stream.Event{
			Time:  int64(1_000_000 + i/perTick),
			Key:   uint64((i/perTick*perTick + i%perTick) % keys),
			Value: float64(rng.Intn(1000)),
		}
	}
	return evs
}

// benchShapes are the batches the kernel benchmarks run: engine_shared's
// 64 keys at 64 a tick (1-byte time and key offsets), text_egress's 4,096
// keys at 512 a tick (1-byte time, 2-byte key offsets), and full width.
var benchShapes = []struct {
	name    string
	keys    int
	perTick int
}{
	{"engine_shared", 64, 64},
	{"text", 4096, 512},
	{"full_width", 0, 0},
}

// BenchmarkAppendEventFrame encodes one 8,192-row batch into a warm
// buffer — the encode every WAL append, router send and binary client
// pays per batch. SetBytes is the encoded frame's size.
func BenchmarkAppendEventFrame(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			evs := shapeEvents(sh.keys, sh.perTick)
			buf := AppendEventFrame(nil, evs)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				buf = AppendEventFrame(buf[:0], evs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
			b.ReportMetric(float64(len(buf))/float64(len(evs)), "B/event")
		})
	}
}

// BenchmarkAppendEvents decodes one events frame into a warm staging
// slice — the per-batch decode every binary ingest, WAL replay and shard
// worker pays before any engine runs: sampleEvents' 4,096 rows, and each
// benchShapes batch. SetBytes is the encoded frame's size.
func BenchmarkAppendEvents(b *testing.B) {
	batches := map[string][]stream.Event{"sample": sampleEvents(4096)}
	for _, sh := range benchShapes {
		batches[sh.name] = shapeEvents(sh.keys, sh.perTick)
	}
	for name, evs := range batches {
		b.Run(name, func(b *testing.B) {
			buf := AppendEventFrame(nil, evs)
			f, _, err := Decode(buf)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]stream.Event, 0, len(evs))
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				batch = f.AppendEvents(batch[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}

// TestSetRunMatchesSetRow: one frame's rows cut into runs at random and
// written with SetRun must be the bytes per-row SetRow writes — the
// stream readers encode runs, and every other producer of result frames
// (and every golden) encodes rows.
func TestSetRunMatchesSetRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type row struct {
		rng, slide, start, end int64
		key                    uint64
		value                  float64
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		rows := make([]row, n)
		var cuts []int // run boundaries: a run never spans a header change
		h := row{rng: 8, slide: 4, start: 0, end: 8}
		for i := range rows {
			switch rng.Intn(6) {
			case 0: // next instance: a new run
				h.start, h.end = h.start+4, h.end+4
				cuts = append(cuts, i)
			case 1: // same header, new run all the same
				cuts = append(cuts, i)
			}
			rows[i] = h
			rows[i].key = rng.Uint64()
			rows[i].value = math.Float64frombits(rng.Uint64()) // NaNs and infinities included
		}
		if n > 0 && (len(cuts) == 0 || cuts[0] != 0) {
			cuts = append([]int{0}, cuts...)
		}

		perRow := BeginResultFrame([]byte("prefix"), 9, int64(trial), n)
		for i, r := range rows {
			perRow.SetRow(i, r.rng, r.slide, r.start, r.end, r.key, r.value)
		}
		perRun := BeginResultFrame([]byte("prefix"), 9, int64(trial), n)
		for c, at := range cuts {
			end := n
			if c+1 < len(cuts) {
				end = cuts[c+1]
			}
			keys, vals := make([]uint64, 0, end-at), make([]float64, 0, end-at)
			for _, r := range rows[at:end] {
				keys, vals = append(keys, r.key), append(vals, r.value)
			}
			perRun.SetRun(at, rows[at].rng, rows[at].slide, rows[at].start, rows[at].end, keys, vals)
		}
		if !bytes.Equal(perRun.Bytes(), perRow.Bytes()) {
			t.Fatalf("trial %d: %d rows in %d runs: SetRun bytes differ from SetRow bytes", trial, n, len(cuts))
		}
	}
}
