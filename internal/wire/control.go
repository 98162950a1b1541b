// Distributed shard protocol: the control-frame vocabulary the router
// tier and shard workers speak on top of the binary frame format. Data
// stays columnar — event frames flow router→worker, result frames flow
// back — while everything else (session setup, watermarks, barriers,
// state transfer) rides in control frames whose payload is one JSON
// Ctrl envelope.
//
// The envelope is JSON rather than another columnar layout because
// control traffic is rare (a handful of frames per ingest barrier) and
// structural: it carries query sets, opaque state blobs (the engine
// owns their encoding), and error text.
// State blobs can exceed a single control frame's payload bound, so
// AppendCtrl splits State across consecutive frames (More=true on every
// frame but the last) and CtrlAssembler reassembles them; every other
// field rides on the first frame.
package wire

import (
	"encoding/json"
	"fmt"
)

// Control ops. The router initiates every exchange; "ack", "bye" and
// "error" are worker replies.
const (
	// CtrlHello opens a shard session: plan inputs (queries, fn, param,
	// η, factors), the shard's identity, and optionally carried state —
	// one shard's part of an engine.Carried: an engine snapshot, which
	// continues its own plan or, after a re-plan, is canonicalised into
	// the new one. The worker replies with an ack carrying the instances
	// engine.Resume handed over, or an error naming what failed.
	CtrlHello = "hello"
	// CtrlAdvance broadcasts the release horizon (watermark). Pipelined:
	// no reply.
	CtrlAdvance = "advance"
	// CtrlBarrier asks the worker to flush everything its engine has
	// emitted since the last barrier as result frames, terminated by an
	// ack carrying the engine's update counter.
	CtrlBarrier = "barrier"
	// CtrlSnapshot asks for an engine snapshot blob (checkpoint codec) —
	// what every state move carries: server checkpoints, journal
	// compaction (hence failover replay), rebalance, drain and the
	// re-plan handover.
	CtrlSnapshot = "snapshot"
	// CtrlRelease ends the session discarding the engine without a
	// flush — the state has moved elsewhere and a flush would emit rows
	// the new host will also emit. The worker replies bye.
	CtrlRelease = "release"
	// CtrlClose ends the session flushing the engine: open instances
	// fire, their rows ship as result frames, then bye.
	CtrlClose = "close"
	// CtrlAck acknowledges a hello or a barrier.
	CtrlAck = "ack"
	// CtrlBye acknowledges a release or close; the worker is about to
	// drop the connection.
	CtrlBye = "bye"
	// CtrlError reports a worker-side failure (an engine contract
	// violation, a corrupt state blob). The session is dead.
	CtrlError = "error"
)

// CtrlWindow is one window in a hello's query set.
type CtrlWindow struct {
	Range int64 `json:"range"`
	Slide int64 `json:"slide"`
}

// CtrlQuery is one query in a hello's query set: the inputs the worker
// needs to rebuild the identical joint plan deterministically.
type CtrlQuery struct {
	ID      string       `json:"id"`
	Windows []CtrlWindow `json:"windows"`
}

// Ctrl is the distributed protocol's control envelope. Only the fields
// relevant to the op are set; State auto-base64s through encoding/json.
type Ctrl struct {
	Op string `json:"op"`

	// Hello: session identity and plan inputs.
	Shard   int         `json:"shard,omitempty"`
	Shards  int         `json:"shards,omitempty"`
	Fn      int         `json:"fn,omitempty"`
	Param   float64     `json:"param,omitempty"`
	Eta     int64       `json:"eta,omitempty"`
	Factors bool        `json:"factors,omitempty"`
	Queries []CtrlQuery `json:"queries,omitempty"`

	// Horizon carries the watermark (advance).
	Horizon int64 `json:"horizon,omitempty"`
	// Floor is a hello's exposed-result floor for windows the carried
	// state does not cover (or all windows, when State is empty), and the
	// re-plan cut a snapshot of another plan is canonicalised at.
	Floor int64 `json:"floor,omitempty"`

	// State is one shard's carried state as bytes — an engine snapshot,
	// opaque to every carrier. Split across frames when it exceeds the
	// chunk bound.
	State []byte `json:"state,omitempty"`
	// More marks a continuation: the next control frame on this stream
	// extends State.
	More bool `json:"more,omitempty"`

	// Ack/bye bookkeeping: the engine's cumulative update and event
	// counters, for the router's aggregated stats, and on a hello's ack
	// the window instances the carried state handed over.
	Updates  int64 `json:"updates,omitempty"`
	Events   int64 `json:"events,omitempty"`
	Migrated int   `json:"migrated,omitempty"`

	// Error is CtrlError's failure text.
	Error string `json:"error,omitempty"`
}

// ctrlStateChunk bounds the raw State bytes per control frame. Base64
// inflates by 4/3 and the envelope adds field overhead; 256 KiB of raw
// state keeps each frame's payload well under the control payload bound
// AppendControlFrameAux enforces.
const ctrlStateChunk = 256 << 10

// AppendCtrl appends c as one or more control frames: oversized State
// splits across consecutive frames with More set on every frame but the
// last. The inverse is CtrlAssembler.
func AppendCtrl(dst []byte, streamID uint32, c *Ctrl) []byte {
	if len(c.State) <= ctrlStateChunk {
		payload, err := json.Marshal(c)
		if err != nil {
			panic(fmt.Sprintf("wire: encoding control envelope: %v", err))
		}
		return AppendControlFrame(dst, streamID, payload)
	}
	state := c.State
	head := *c
	head.State = state[:ctrlStateChunk]
	head.More = true
	payload, err := json.Marshal(&head)
	if err != nil {
		panic(fmt.Sprintf("wire: encoding control envelope: %v", err))
	}
	dst = AppendControlFrame(dst, streamID, payload)
	for off := ctrlStateChunk; off < len(state); off += ctrlStateChunk {
		end := min(off+ctrlStateChunk, len(state))
		cont := Ctrl{Op: c.Op, State: state[off:end], More: end < len(state)}
		payload, err := json.Marshal(&cont)
		if err != nil {
			panic(fmt.Sprintf("wire: encoding control continuation: %v", err))
		}
		dst = AppendControlFrame(dst, streamID, payload)
	}
	return dst
}

// maxCtrlState caps the State one envelope may assemble from a More
// chain: 64 MiB. Sizing: no shard state this system can carry is
// larger — POST /restore accepts a checkpoint of at most 64 MiB whole
// (the server's maxRestoreBody) with every shard's snapshot inside it —
// while the largest shard snapshot measured (2,048 keys) is 150 KB,
// over 400× below the cap. A chain that would pass it comes from a
// broken or hostile peer, and without it a peer that can reach a
// worker's port could grow the buffer until the process dies.
const maxCtrlState = 64 << 20

// CtrlAssembler reassembles a Ctrl from its control frames. Feed every
// control frame to Add; it returns the completed envelope once the last
// chunk lands (immediately, for single-frame envelopes).
type CtrlAssembler struct {
	cur *Ctrl
	// limit replaces maxCtrlState when positive, so tests can reach the
	// cap without 64 MiB chains.
	limit int
}

// Pending reports whether a partially assembled envelope is in flight.
func (a *CtrlAssembler) Pending() bool { return a.cur != nil }

// Add decodes one control frame. done is true when a complete envelope
// is ready; until then the assembler buffers continuation chunks. A
// chain whose State would pass maxCtrlState fails with ErrTooLarge and
// resets the assembler; the session it arrived on should hang up.
func (a *CtrlAssembler) Add(f Frame) (c Ctrl, done bool, err error) {
	if f.Kind != KindControl {
		return Ctrl{}, false, fmt.Errorf("%w: expected a control frame, got kind %d", ErrKind, f.Kind)
	}
	var next Ctrl
	if err := json.Unmarshal(f.Control(), &next); err != nil {
		return Ctrl{}, false, fmt.Errorf("wire: decoding control envelope: %w", err)
	}
	if a.cur == nil {
		if !next.More {
			return next, true, nil
		}
		head := next
		head.More = false
		// The head's State slice aliases the reader's frame buffer; the
		// continuation appends below must not scribble over it.
		if head.State, err = a.extend(nil, next.State); err != nil {
			return Ctrl{}, false, err
		}
		a.cur = &head
		return Ctrl{}, false, nil
	}
	if next.Op != a.cur.Op {
		op := a.cur.Op
		a.cur = nil
		return Ctrl{}, false, fmt.Errorf("wire: control continuation op %q inside %q", next.Op, op)
	}
	if a.cur.State, err = a.extend(a.cur.State, next.State); err != nil {
		a.cur = nil
		return Ctrl{}, false, err
	}
	if next.More {
		return Ctrl{}, false, nil
	}
	out := *a.cur
	a.cur = nil
	return out, true, nil
}

// extend appends chunk to the state being assembled, or fails once the
// total would pass the cap. Growth is capped as well, so the buffer never
// holds more than the cap however a chain sizes its chunks.
func (a *CtrlAssembler) extend(state, chunk []byte) ([]byte, error) {
	limit := maxCtrlState
	if a.limit > 0 {
		limit = a.limit
	}
	need := len(state) + len(chunk)
	if need > limit {
		return nil, fmt.Errorf("%w: control state passes %d bytes", ErrTooLarge, limit)
	}
	if need > cap(state) {
		grown := make([]byte, len(state), min(max(2*cap(state), need), limit))
		copy(grown, state)
		state = grown
	}
	return append(state, chunk...), nil
}
