package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// decodeAllCtrl feeds every frame in buf through a fresh assembler and
// returns the completed envelopes.
func decodeAllCtrl(t *testing.T, buf []byte) []Ctrl {
	t.Helper()
	var (
		asm  CtrlAssembler
		out  []Ctrl
		rest = buf
	)
	for len(rest) > 0 {
		f, r, err := Decode(rest)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		rest = r
		c, done, err := asm.Add(f)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		if done {
			out = append(out, c)
		}
	}
	if asm.Pending() {
		t.Fatal("assembler still pending after all frames")
	}
	return out
}

func TestCtrlRoundTripSingleFrame(t *testing.T) {
	in := Ctrl{
		Op:      CtrlHello,
		Shard:   3,
		Shards:  7,
		Fn:      2,
		Param:   0.5,
		Eta:     40,
		Factors: true,
		Queries: []CtrlQuery{
			{ID: "q1", Windows: []CtrlWindow{{Range: 16, Slide: 16}}},
			{ID: "q2", Windows: []CtrlWindow{{Range: 12, Slide: 6}}},
		},
		Horizon: 99,
		Floor:   -5,
		State:   []byte("small blob"),
		Updates: 11,
		Events:  22,
	}
	buf := AppendCtrl(nil, 42, &in)

	// A small State must stay a single frame.
	f, rest, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("expected one frame, %d bytes left after the first", len(rest))
	}
	if f.StreamID != 42 {
		t.Fatalf("StreamID = %d, want 42", f.StreamID)
	}

	out := decodeAllCtrl(t, buf)
	if len(out) != 1 {
		t.Fatalf("decoded %d envelopes, want 1", len(out))
	}
	got := out[0]
	if got.Op != in.Op || got.Shard != in.Shard || got.Shards != in.Shards ||
		got.Fn != in.Fn || got.Param != in.Param || got.Eta != in.Eta ||
		got.Factors != in.Factors || got.Horizon != in.Horizon || got.Floor != in.Floor ||
		got.Updates != in.Updates || got.Events != in.Events {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
	if !bytes.Equal(got.State, in.State) {
		t.Fatalf("State round trip mismatch: got %q", got.State)
	}
	if len(got.Queries) != 2 || got.Queries[0].ID != "q1" ||
		got.Queries[1].Windows[0] != (CtrlWindow{Range: 12, Slide: 6}) {
		t.Fatalf("Queries round trip mismatch: %+v", got.Queries)
	}
}

func TestCtrlRoundTripChunkedState(t *testing.T) {
	// Just over two chunks, with content that catches reordered or
	// duplicated chunks.
	state := make([]byte, 2*ctrlStateChunk+12345)
	for i := range state {
		state[i] = byte(i * 31)
	}
	in := Ctrl{Op: CtrlExport, Horizon: 77, State: state}
	buf := AppendCtrl(nil, 9, &in)

	// Count frames: must be 3, all control frames.
	var frames int
	for rest := buf; len(rest) > 0; frames++ {
		f, r, err := Decode(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		if f.Kind != KindControl {
			t.Fatalf("frame %d: kind %d", frames, f.Kind)
		}
		rest = r
	}
	if frames != 3 {
		t.Fatalf("chunked into %d frames, want 3", frames)
	}

	out := decodeAllCtrl(t, buf)
	if len(out) != 1 {
		t.Fatalf("decoded %d envelopes, want 1", len(out))
	}
	got := out[0]
	if got.Op != CtrlExport || got.Horizon != 77 {
		t.Fatalf("head fields lost across chunks: op=%q horizon=%d", got.Op, got.Horizon)
	}
	if got.More {
		t.Fatal("assembled envelope still flagged More")
	}
	if !bytes.Equal(got.State, state) {
		t.Fatalf("chunked State mismatch: got %d bytes, want %d", len(got.State), len(state))
	}

	// Back-to-back envelopes on one buffer must assemble independently.
	buf = AppendCtrl(buf, 9, &Ctrl{Op: CtrlAck, Updates: 5})
	out = decodeAllCtrl(t, buf)
	if len(out) != 2 || out[1].Op != CtrlAck || out[1].Updates != 5 {
		t.Fatalf("second envelope after chunked first: %+v", out)
	}
}

func TestCtrlAssemblerRejectsNonControl(t *testing.T) {
	buf := AppendEventFrame(nil, nil)
	f, _, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	var asm CtrlAssembler
	if _, _, err := asm.Add(f); !errors.Is(err, ErrKind) {
		t.Fatalf("Add(events frame) err = %v, want ErrKind", err)
	}
}

// ctrlFrame encodes c as one control frame, however large its State —
// unlike AppendCtrl, which would split it.
func ctrlFrame(t *testing.T, c Ctrl) Frame {
	t.Helper()
	payload, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := Decode(AppendControlFrame(nil, 0, payload))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCtrlAssemblerStateCap ends More chains whose State totals one
// byte under, exactly at and one byte over maxCtrlState. Each chain
// stands pre-assembled to two chunks short of its total (decoding 64 MiB
// of base64 per case would buy nothing the last frames do not show);
// one full AppendCtrl-sized chunk and the remainder then arrive as real
// frames. The first two complete intact; the third fails typed on its
// last chunk and leaves the assembler reset and reusable. The buffer
// never grows past the cap on the way.
func TestCtrlAssemblerStateCap(t *testing.T) {
	chunk := make([]byte, ctrlStateChunk)
	for i := range chunk {
		chunk[i] = byte(i * 7)
	}
	more := ctrlFrame(t, Ctrl{Op: CtrlSnapshot, State: chunk, More: true})
	for _, n := range []int{maxCtrlState - 1, maxCtrlState, maxCtrlState + 1} {
		rem := n % ctrlStateChunk
		if rem == 0 {
			rem = ctrlStateChunk
		}
		asm := CtrlAssembler{cur: &Ctrl{Op: CtrlSnapshot, State: make([]byte, n-rem-ctrlStateChunk)}}
		if _, done, err := asm.Add(more); err != nil || done {
			t.Fatalf("n=%d: full chunk: done=%t err=%v, want pending", n, done, err)
		}
		if c := cap(asm.cur.State); c > maxCtrlState {
			t.Fatalf("n=%d: state buffer grew to %d bytes, cap %d", n, c, maxCtrlState)
		}
		c, done, err := asm.Add(ctrlFrame(t, Ctrl{Op: CtrlSnapshot, State: chunk[:rem]}))
		if n > maxCtrlState {
			if !errors.Is(err, ErrTooLarge) || done {
				t.Fatalf("n=%d: done=%t err=%v, want ErrTooLarge", n, done, err)
			}
			if asm.Pending() {
				t.Fatalf("n=%d: assembler still pending after the refusal", n)
			}
			if c, done, err := asm.Add(ctrlFrame(t, Ctrl{Op: CtrlAck})); err != nil || !done || c.Op != CtrlAck {
				t.Fatalf("n=%d: next envelope after the refusal: %+v done=%t err=%v", n, c, done, err)
			}
			continue
		}
		if err != nil || !done {
			t.Fatalf("n=%d: done=%t err=%v, want the envelope", n, done, err)
		}
		if len(c.State) != n || cap(c.State) > maxCtrlState {
			t.Fatalf("n=%d: assembled %d bytes in a %d-byte buffer", n, len(c.State), cap(c.State))
		}
		if !bytes.Equal(c.State[n-rem-ctrlStateChunk:], append(chunk[:len(chunk):len(chunk)], chunk[:rem]...)) {
			t.Fatalf("n=%d: assembled state altered", n)
		}
	}
}

func TestCtrlAssemblerRejectsMixedContinuation(t *testing.T) {
	state := make([]byte, ctrlStateChunk+1)
	buf := AppendCtrl(nil, 1, &Ctrl{Op: CtrlExport, State: state})
	head, _, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode head: %v", err)
	}
	var asm CtrlAssembler
	if _, done, err := asm.Add(head); err != nil || done {
		t.Fatalf("head: done=%t err=%v, want pending", done, err)
	}
	if !asm.Pending() {
		t.Fatal("assembler not pending after More head")
	}
	// An unrelated envelope in place of the continuation is a protocol
	// violation, not silent truncation.
	other := AppendCtrl(nil, 1, &Ctrl{Op: CtrlAck})
	f, _, err := Decode(other)
	if err != nil {
		t.Fatalf("Decode other: %v", err)
	}
	if _, _, err := asm.Add(f); err == nil {
		t.Fatal("mixed continuation accepted")
	}
	if asm.Pending() {
		t.Fatal("assembler still pending after protocol violation")
	}
}
