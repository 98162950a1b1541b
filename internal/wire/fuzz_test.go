package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"slices"
	"testing"

	"factorwindows/internal/stream"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder (and the
// io.Reader wrapper over the same bytes) and pins the codec's safety
// contract: decoding never panics, never over-reads past the declared
// frame length, and every rejection is one of the package's typed
// errors — a malicious or corrupted peer can produce garbage results at
// worst, never a crash or an unbounded allocation.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEventFrame(nil, nil))
	f.Add(AppendEventFrame(nil, []stream.Event{
		{Time: 1, Key: 7, Value: 21.5},
		{Time: 2, Key: 7, Value: math.Inf(-1)},
	}))
	f.Add(AppendEventFrame(nil, []stream.Event{
		{Time: math.MinInt64, Key: math.MaxUint64, Value: math.Float64frombits(0x7ff0000000000001)}, // signalling NaN
		{Time: math.MaxInt64, Key: 0, Value: math.Float64frombits(0xfff8000000000bad)},
		{Time: 0, Key: 1, Value: math.Copysign(0, -1)},
	}))
	enc := BeginResultFrame(nil, 9, 420, 2)
	enc.SetRow(0, 20, 20, 0, 20, 3, 1.5)
	enc.SetRow(1, 20, 20, 20, 40, 3, math.NaN())
	f.Add(enc.Bytes())
	f.Add(AppendControlFrame(nil, 1, []byte(`{"stream":1,"ok":true}`)))
	// Two concatenated frames, then corruptions of each header byte.
	two := AppendEventFrame(AppendControlFrame(nil, 0, nil), []stream.Event{{Time: 3, Key: 1, Value: 0.25}})
	f.Add(two)
	for i := 0; i < prefixLen+headerLen; i++ {
		mut := append([]byte(nil), two...)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	f.Add(two[:len(two)-3]) // severed mid-frame
	// Every width pair of the adaptive layout, and the fixed layout every
	// older client sends.
	for _, c := range widthCases() {
		f.Add(AppendEventFrame(nil, c.evs))
	}
	if v1, err := os.ReadFile("testdata/events_v1.fwf"); err == nil {
		f.Add(v1)
	}
	// Row counts whose payload size arithmetic would overflow the u32
	// length prefix if computed in 32 bits: the decoder must reject on
	// the declared count alone, before any rows × column-stride math.
	f.Add(overflowRowsFrame(KindEvents, 0xFFFFFFFF))
	f.Add(overflowRowsFrame(KindResults, 0xFFFFFFFF/colWidth+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrShort) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrKind) && !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrSize) &&
				!errors.Is(err, ErrWidth) {
				t.Fatalf("Decode returned untyped error %v", err)
			}
		} else {
			if len(rest) > len(data) {
				t.Fatalf("rest grew: %d > %d input bytes", len(rest), len(data))
			}
			exercise(t, fr)
		}

		// The streaming reader over the same bytes must agree: panic-free,
		// and ending only in io.EOF (clean) or a typed error.
		r := NewReader(bytes.NewReader(data))
		defer r.Close()
		for {
			fr, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrShort) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
					!errors.Is(err, ErrKind) && !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrSize) &&
					!errors.Is(err, ErrWidth) {
					t.Fatalf("Reader.Next returned untyped error %v", err)
				}
				break
			}
			exercise(t, fr)
		}
	})
}

// FuzzEventFrameRoundTrip pins the event layout's exactness: encoding any
// events and decoding them back is the identity, bit for bit — NaN
// payloads, −0 and infinities in the value column, MinInt64/MaxInt64
// times and full-range keys included — and every column gets the
// narrowest width that holds its span. data is cut into 24-byte rows of
// raw time, key and value bits; each row's time and key are its raw bits
// shifted right by tshift / kshift and added to tbase / kbase, so the
// fuzzer reaches every width from 1 to 8 bytes.
func FuzzEventFrameRoundTrip(f *testing.F) {
	row := func(t int64, k uint64, v float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(t))
		b = binary.LittleEndian.AppendUint64(b, k)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	extremes := slices.Concat(
		row(math.MinInt64, math.MaxUint64, math.Float64frombits(0x7ff0000000000001)),
		row(math.MaxInt64, 0, math.Float64frombits(0xfff8000000000bad)),
		row(0, 1, math.Copysign(0, -1)),
		row(-1, 1<<63, math.Inf(1)),
		row(1, 1<<63-1, math.Inf(-1)),
	)
	f.Add(extremes, int64(0), uint64(0), uint8(0), uint8(0))
	f.Add(extremes, int64(1_000_000), uint64(7), uint8(57), uint8(60))
	f.Add(extremes, int64(-5), uint64(1<<40), uint8(48), uint8(32))
	f.Add([]byte{}, int64(0), uint64(0), uint8(0), uint8(0))
	f.Add(row(42, 9, 1.5), int64(math.MaxInt64), uint64(math.MaxUint64), uint8(63), uint8(63))

	f.Fuzz(func(t *testing.T, data []byte, tbase int64, kbase uint64, tshift, kshift uint8) {
		evs := make([]stream.Event, len(data)/24)
		for i := range evs {
			r := data[24*i:]
			evs[i] = stream.Event{
				Time:  tbase + int64(binary.LittleEndian.Uint64(r)>>(tshift%64)),
				Key:   kbase + binary.LittleEndian.Uint64(r[8:])>>(kshift%64),
				Value: math.Float64frombits(binary.LittleEndian.Uint64(r[16:])),
			}
		}
		buf := AppendEventFrame([]byte{0xaa}, evs)
		fr, rest, err := Decode(buf[1:])
		if err != nil || len(rest) != 0 || buf[0] != 0xaa {
			t.Fatalf("Decode: %v (rest %d, prefix %#x)", err, len(rest), buf[0])
		}
		got := fr.AppendEvents(nil)
		if len(got) != len(evs) || fr.Rows() != len(evs) {
			t.Fatalf("%d events came back as %d (Rows %d)", len(evs), len(got), fr.Rows())
		}
		for i := range evs {
			if !sameEvent(got[i], evs[i]) || !sameEvent(fr.Event(i), evs[i]) {
				t.Fatalf("row %d: got %+v / %+v, want %+v", i, got[i], fr.Event(i), evs[i])
			}
		}
		// The narrowest widths: a span s needs w bytes with s < 2^(8w).
		narrowest := func(lo, hi uint64) int {
			w := 1
			for w < 8 && hi-lo >= 1<<(8*w) {
				w *= 2
			}
			return w
		}
		tw, kw := 1, 1
		if len(evs) > 0 {
			tlo, thi := evs[0].Time, evs[0].Time
			klo, khi := evs[0].Key, evs[0].Key
			for _, e := range evs {
				tlo, thi, klo, khi = min(tlo, e.Time), max(thi, e.Time), min(klo, e.Key), max(khi, e.Key)
			}
			tw, kw = narrowest(uint64(tlo), uint64(thi)), narrowest(klo, khi)
		}
		if want := prefixLen + headerLen + eventBases + len(evs)*(tw+kw+colWidth); len(buf)-1 != want {
			t.Fatalf("%d events spanning widths %d/%d encoded to %d bytes, want %d", len(evs), tw, kw, len(buf)-1, want)
		}
	})
}

// overflowRowsFrame hand-assembles a frame whose header is well-formed
// (valid prefix, magic, version, kind) but declares a row count far
// beyond what the length prefix could ever carry: rows × the 8-byte
// column stride wraps a u32. The payload is empty — the decoder must
// never get as far as comparing payload lengths.
func overflowRowsFrame(kind byte, rows uint32) []byte {
	body := make([]byte, headerLen)
	body[0], body[1], body[2] = 'F', 'W', Version
	body[3] = kind
	binary.LittleEndian.PutUint32(body[4:], rows)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(buf, body...)
}

// TestDecodeRejectsRowsOverflow pins the typed rejection for declared
// row counts that would overflow 32-bit payload-size arithmetic: the
// decoder bounds rows against MaxFrameRows before multiplying by any
// column stride, so a 2^32-1 declaration fails with ErrTooLarge rather
// than wrapping into a plausible payload length and over-reading.
func TestDecodeRejectsRowsOverflow(t *testing.T) {
	cases := []struct {
		name string
		kind byte
		rows uint32
	}{
		{"events/max-u32", KindEvents, 0xFFFFFFFF},
		{"results/stride-wrap", KindResults, 0xFFFFFFFF/colWidth + 1},
		{"events/just-over-cap", KindEvents, MaxFrameRows + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := overflowRowsFrame(tc.kind, tc.rows)
			if _, _, err := Decode(buf); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("Decode(rows=%#x) = %v, want ErrTooLarge", tc.rows, err)
			}
			// The streaming reader must reach the same typed verdict.
			r := NewReader(bytes.NewReader(buf))
			defer r.Close()
			if _, err := r.Next(); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("Reader.Next(rows=%#x) = %v, want ErrTooLarge", tc.rows, err)
			}
		})
	}
	// Sanity anchor: the same hand-built frame with an in-bounds row
	// count of zero decodes cleanly, proving the rejections above come
	// from the row bound and not a malformed header.
	for _, kind := range []byte{KindEvents, KindResults} {
		if _, _, err := Decode(overflowRowsFrame(kind, 0)); err != nil {
			t.Fatalf("control frame (kind %d, 0 rows) rejected: %v", kind, err)
		}
	}
}

// exercise touches every accessor of a successfully decoded frame, so
// the fuzzer catches any row-count/payload-length mismatch as an
// out-of-range panic. For event frames it is also the oracle for the
// one-sweep decode: AppendEvents row i must be Event(i) bit for bit
// (NaN payloads included), appended after a caller's prefix that it
// leaves untouched.
func exercise(t *testing.T, f Frame) {
	t.Helper()
	n := f.Rows()
	switch f.Kind {
	case KindEvents:
		prefix := stream.Event{Time: -1, Key: 0xfeed, Value: math.Float64frombits(0x7ff8dead)}
		grown := f.AppendEvents([]stream.Event{prefix})
		inPlace := f.AppendEvents(append(make([]stream.Event, 0, 1+n), prefix))
		for _, got := range [][]stream.Event{grown, inPlace} {
			if len(got) != 1+n {
				t.Fatalf("AppendEvents returned %d events after a 1-event prefix, Rows says %d", len(got), n)
			}
			if !sameEvent(got[0], prefix) {
				t.Fatalf("AppendEvents overwrote the prefix: %+v", got[0])
			}
			for i := 0; i < n; i++ {
				if e := f.Event(i); !sameEvent(got[1+i], e) {
					t.Fatalf("row %d: AppendEvents %+v, Event %+v", i, got[1+i], e)
				}
			}
		}
	case KindResults:
		for i := 0; i < n; i++ {
			_, _, _, _, _, _, _ = f.Result(i)
		}
	case KindControl:
		_ = f.Control()
	default:
		t.Fatalf("decoded frame has unknown kind %d", f.Kind)
	}
}

// sameEvent compares events field by field, the value by its bits.
func sameEvent(a, b stream.Event) bool {
	return a.Time == b.Time && a.Key == b.Key && math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// FuzzCtrlAssembler pins the control-envelope reassembly a router and a
// worker run on bytes straight off a socket. Three properties:
//
//   - Arbitrary control-frame sequences never panic. data is read twice:
//     as a raw frame stream (whatever Decode accepts goes to Add, frames
//     of the wrong kind included), and line by line as control-frame
//     payloads, so the fuzzer reaches the envelope logic — continuation
//     ops, More chains, malformed JSON mid-chain — without first having
//     to guess a frame header. A completed envelope always leaves the
//     assembler idle.
//   - A chain that never ends, repeating data as its State, is refused
//     with ErrTooLarge once it would pass the cap, with the assembled
//     buffer never larger than the cap — allocation is bounded by the
//     cap, not by how long the peer keeps sending.
//   - AppendCtrl → Add is the identity on State for every length around
//     the 256 KiB chunk boundaries, with the head frame's fields intact
//     and exactly as many frames as chunks.
func FuzzCtrlAssembler(f *testing.F) {
	f.Add([]byte(`{"op":"barrier"}`), uint32(0))
	f.Add([]byte(`{"op":"export","more":true,"state":"AAEC"}`+"\n"+`{"op":"export","state":"AwQ="}`), uint32(1))
	f.Add([]byte(`{"op":"export","more":true}`+"\n"+`{"op":"snapshot"}`+"\n"+`{"op":`), uint32(ctrlStateChunk-1))
	f.Add(AppendCtrl(nil, 3, &Ctrl{Op: CtrlHello, Shards: 2, State: []byte("blob")}), uint32(ctrlStateChunk))
	// A hello whose State is a snapshot-headed blob one chunk and a bit
	// long: the shape every compaction, failover and rebalance hello has
	// once a shard's state outgrows a frame.
	f.Add(AppendCtrl(nil, 4, &Ctrl{Op: CtrlHello, Shards: 2, Floor: 9,
		State: append([]byte("FWSNAP2\n"), make([]byte, ctrlStateChunk+17)...)}), uint32(3))
	f.Add(AppendEventFrame(nil, []stream.Event{{Time: 1, Key: 2, Value: 3}}), uint32(ctrlStateChunk+1))
	f.Add([]byte("\n\n"), uint32(2*ctrlStateChunk))
	f.Add([]byte{0xff}, uint32(2*ctrlStateChunk+1))

	f.Fuzz(func(t *testing.T, data []byte, stateLen uint32) {
		var asm CtrlAssembler
		add := func(fr Frame) {
			if _, done, err := asm.Add(fr); err == nil && done && asm.Pending() {
				t.Fatal("assembler still pending after completing an envelope")
			}
		}
		for rest := data; ; {
			fr, r, err := Decode(rest)
			if err != nil {
				break
			}
			rest = r
			add(fr)
		}
		for _, payload := range bytes.Split(data, []byte{'\n'}) {
			if len(payload) > MaxFrameRows {
				continue // AppendControlFrame's own bound; callers never exceed it
			}
			fr, _, err := Decode(AppendControlFrame(nil, 0, payload))
			if err != nil {
				t.Fatalf("control frame of %d payload bytes does not decode: %v", len(payload), err)
			}
			add(fr)
		}

		// A length-lying chain — More on every frame, never an end — is
		// refused typed once its State would pass the cap, and the buffer
		// holding it never grows past the cap first. The cap here is the
		// assembler's test override, at most 16 chunks of data, so the
		// chain passes it within 17 frames.
		chunk := data[:min(len(data), 16<<10)]
		limit := 1 + int(stateLen%uint32(16*max(1, len(chunk))))
		payload, err := json.Marshal(&Ctrl{Op: CtrlSnapshot, State: chunk, More: true})
		if err != nil {
			t.Fatal(err)
		}
		lie, _, err := Decode(AppendControlFrame(nil, 0, payload))
		if err != nil {
			t.Fatal(err)
		}
		lying := CtrlAssembler{limit: limit}
		for i, fed := 0, 0; i <= 16; i++ {
			fed += len(chunk)
			_, done, err := lying.Add(lie)
			if done {
				t.Fatal("a chain that never ends completed")
			}
			if err != nil {
				if !errors.Is(err, ErrTooLarge) || fed <= limit || lying.Pending() {
					t.Fatalf("after %d state bytes under a %d-byte cap: err=%v pending=%t", fed, limit, err, lying.Pending())
				}
				break
			}
			if fed > limit {
				t.Fatalf("accepted %d state bytes under a %d-byte cap", fed, limit)
			}
			if c := cap(lying.cur.State); c > limit {
				t.Fatalf("state buffer grew to %d bytes under a %d-byte cap", c, limit)
			}
		}

		// Lengths within a few bytes of the first two chunk boundaries are
		// taken as given (the seeds sit on them); the rest of the u32
		// range folds to small states, so most executions stay cheap.
		n := int(stateLen)
		if off := n % ctrlStateChunk; n > 2*ctrlStateChunk+8 || (off > 8 && off < ctrlStateChunk-8) {
			n %= 4096
		}
		state := make([]byte, n)
		for i := range state {
			if len(data) > 0 {
				state[i] = data[i%len(data)]
			}
			state[i] += byte(i >> 8) // the chunks differ even under a short data
		}
		in := Ctrl{Op: CtrlSnapshot, Horizon: 7, Updates: int64(n), State: state}
		buf := AppendCtrl(nil, 5, &in)
		var (
			rt     CtrlAssembler
			frames int
			out    Ctrl
			done   bool
		)
		for rest := buf; len(rest) > 0; {
			if done {
				t.Fatal("frames left after the envelope completed")
			}
			fr, r, err := Decode(rest)
			if err != nil {
				t.Fatalf("Decode(AppendCtrl output): %v", err)
			}
			rest = r
			frames++
			if out, done, err = rt.Add(fr); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		if want := max(1, (n+ctrlStateChunk-1)/ctrlStateChunk); frames != want {
			t.Fatalf("%d state bytes rode %d frames, want %d", n, frames, want)
		}
		if !done || rt.Pending() {
			t.Fatalf("envelope incomplete after all %d frames", frames)
		}
		if out.Op != in.Op || out.Horizon != in.Horizon || out.Updates != in.Updates || out.More {
			t.Fatalf("head fields changed: %+v", out)
		}
		if !bytes.Equal(out.State, state) {
			t.Fatalf("State of %d bytes came back as %d bytes (or altered)", n, len(out.State))
		}
	})
}
