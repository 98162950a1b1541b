// Checkpointing: serialize a Runner's in-flight state (open window
// instances and their partial aggregates) so a stream can resume after a
// restart without replaying from the beginning. This addresses the
// operational concern the paper raises about Scotty — user-defined
// operators must integrate with each engine's state backend — by giving
// our engine a self-contained state backend.
//
// One codec generation exists: a magic header followed by a gob stream
// that mirrors the columnar store. Per operator it holds the open
// instances' live spans and, for instances carried across a plan swap
// whose straddling fire has not happened yet, their frozen spans — each
// one InstanceState, the record a migration Export carries too, so one
// reader (spanState) and one loader (loadSpan) serve both. Anything
// without the header — earlier generations included — is rejected with
// ErrSnapshotVersion.
//
// This file is also the engine's only gob site: the canonical migration
// Export (migrate.go) is encoded and decoded here under a header of its
// own, and every shard's carried state travels as a Carried, so the
// packages that carry it (parallel, router, shardworker, server) never
// learn the encoding, nor which form a shard's state is — Resume tells.
//
// A snapshot is only valid for the identical plan (same windows, same
// sharing structure, same aggregate function); Restore verifies a
// fingerprint before accepting it. There it is bit-exact: operator-shaped
// state continues the plan's own merge order, where the window-shaped
// export regroups float sums and sketch compactions to fit any plan.
// Same plan → snapshot, new plan → export.

package engine

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"factorwindows/internal/agg"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
)

// snapshotMagic prefixes every snapshot: the codec's version.
const snapshotMagic = "FWSNAP3\n"

// exportMagicV1 prefixes every encoded Export: foreign bytes fail typed.
const exportMagicV1 = "FWEXPT1\n"

// ErrSnapshotVersion reports state bytes from a codec generation this
// build does not read. The serving layers wrap it, so errors.Is finds
// it under every restore path.
var ErrSnapshotVersion = errors.New("engine: unsupported snapshot version")

// snapshotRecord is the serialized form of a Runner.
type snapshotRecord struct {
	Fingerprint string
	Events      int64
	Keys        []uint64 // the shared slot→key table
	Nodes       []nodeState
}

// nodeState captures one operator's state: its open instances' live
// spans (consecutive M), and the frozen spans of those that hold one.
type nodeState struct {
	Base     int64
	CurEnd   int64
	HasCur   bool
	EmitFrom int64
	Live     []InstanceState
	Frozen   []InstanceState
	Inputs   int64
	Updates  int64
	Fired    int64
}

// fingerprint identifies the plan shape a snapshot belongs to.
func planFingerprint(all []*node, fn agg.Fn) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fn=%d;", fn)
	for _, n := range all {
		fmt.Fprintf(&b, "w=%d/%d,x=%t,c=%d;", n.w.Range, n.w.Slide, n.exposed, len(n.children))
	}
	return b.String()
}

// Snapshot serializes the Runner's current state. The Runner
// remains usable; snapshots are consistent at batch boundaries (take
// them between Process calls).
func (r *Runner) Snapshot() ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("engine: Snapshot after Close")
	}
	snap := snapshotRecord{
		Fingerprint: planFingerprint(r.all, r.fn),
		Events:      r.events,
		Keys:        append([]uint64(nil), r.keyed.keys...),
	}
	for _, n := range r.all {
		ns := nodeState{
			Base:     n.base,
			CurEnd:   n.curEnd,
			HasCur:   n.curInst != nil,
			EmitFrom: n.emitFrom,
			Inputs:   n.inputs,
			Updates:  n.updates,
			Fired:    n.fired,
		}
		for _, inst := range n.insts[n.head:] {
			live, err := spanState(n.store, inst.m, inst.span, inst.cap)
			if err != nil {
				return nil, err
			}
			ns.Live = append(ns.Live, live)
			if inst.frzCap > 0 {
				frz, err := spanState(n.store, inst.m, inst.frz, inst.frzCap)
				if err != nil {
					return nil, err
				}
				if len(frz.Slots) > 0 {
					ns.Frozen = append(ns.Frozen, frz)
				}
			}
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("engine: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeSnapshot reads a snapshot blob, rejecting anything that does
// not carry the current magic header.
func decodeSnapshot(data []byte) (snapshotRecord, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return snapshotRecord{}, fmt.Errorf("%w: blob lacks the %q header", ErrSnapshotVersion, snapshotMagic)
	}
	var snap snapshotRecord
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapshotMagic):])).Decode(&snap); err != nil {
		return snapshotRecord{}, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	return snap, nil
}

// EncodeExport serializes a canonical migration export — the blob that
// rides hello and export control envelopes between router and workers.
func EncodeExport(ex *Export) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(exportMagicV1)
	if err := gob.NewEncoder(&buf).Encode(ex); err != nil {
		return nil, fmt.Errorf("engine: encoding export: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeExport is EncodeExport's inverse.
func DecodeExport(data []byte) (*Export, error) {
	if !bytes.HasPrefix(data, []byte(exportMagicV1)) {
		return nil, fmt.Errorf("%w: blob lacks the %q header", ErrSnapshotVersion, exportMagicV1)
	}
	ex := new(Export)
	if err := gob.NewDecoder(bytes.NewReader(data[len(exportMagicV1):])).Decode(ex); err != nil {
		return nil, fmt.Errorf("engine: decoding export: %w", err)
	}
	return ex, nil
}

// Carried is the state one sharded execution hands the next: per shard
// either an in-memory canonical export (a re-plan in process) or encoded
// bytes whose header names the form (an engine snapshot, or an export
// that came off a worker), plus the ingest counter. The zero value
// carries nothing and every shard starts fresh. Only this package looks
// inside a shard's state; the packages that carry it pass it on, and
// Resume decides what it is.
type Carried struct {
	Events int64
	Shards []ShardState
}

// ShardState is one shard's part of a Carried. The zero value starts the
// shard fresh.
type ShardState struct {
	ex   *Export
	blob []byte
}

// Exported carries an in-memory export as it stands.
func Exported(ex *Export) ShardState { return ShardState{ex: ex} }

// Encoded carries state bytes as they came off a wire: a snapshot, an
// encoded export, or nothing.
func Encoded(blob []byte) ShardState { return ShardState{blob: blob} }

// Bytes is the state's wire form: an in-memory export is encoded, bytes
// pass through.
func (s ShardState) Bytes() ([]byte, error) {
	if s.ex != nil {
		return EncodeExport(s.ex)
	}
	return s.blob, nil
}

// Snapshots carries a checkpoint's per-shard blobs, refusing any that is
// not an engine snapshot — an export or an empty blob included — with
// ErrSnapshotVersion: a checkpoint promises the same plan, bit-exact,
// which only a snapshot's fingerprint check can hold it to.
func Snapshots(blobs [][]byte, events int64) (Carried, error) {
	c := Carried{Events: events, Shards: make([]ShardState, len(blobs))}
	for i, b := range blobs {
		if !bytes.HasPrefix(b, []byte(snapshotMagic)) {
			return Carried{}, fmt.Errorf("%w: shard %d's state lacks the %q header", ErrSnapshotVersion, i, snapshotMagic)
		}
		c.Shards[i] = Encoded(b)
	}
	return c, nil
}

// Resume compiles p and resumes it from one shard's carried state,
// reading the form off it: a snapshot restores, an export (in memory or
// encoded) migrates, no state starts fresh, and bytes of any other form
// fail with ErrSnapshotVersion. freshFloor is the exposed-result floor of
// windows the state does not cover (a snapshot covers all of its
// plan's). It returns the number of window instances an export handed
// over.
func Resume(p *plan.Plan, sink stream.Sink, st ShardState, freshFloor int64) (*Runner, int, error) {
	if bytes.HasPrefix(st.blob, []byte(snapshotMagic)) {
		r, err := Restore(p, sink, st.blob)
		return r, 0, err
	}
	ex := st.ex
	if len(st.blob) > 0 {
		var err error
		if ex, err = DecodeExport(st.blob); err != nil {
			return nil, 0, err
		}
	}
	r, err := New(p, sink)
	if err != nil {
		return nil, 0, err
	}
	n, err := r.importCanonical(ex, freshFloor)
	if err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// Restore builds a Runner for p whose state is resumed from a snapshot
// previously taken on an identical plan. Processing continues from the
// next batch after the snapshot point.
func Restore(p *plan.Plan, sink stream.Sink, data []byte) (*Runner, error) {
	r, err := New(p, sink)
	if err != nil {
		return nil, err
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if fp := planFingerprint(r.all, r.fn); fp != snap.Fingerprint {
		return nil, fmt.Errorf("engine: snapshot belongs to a different plan (%q vs %q)",
			snap.Fingerprint, fp)
	}
	if len(snap.Nodes) != len(r.all) {
		return nil, fmt.Errorf("engine: snapshot has %d operators, plan has %d",
			len(snap.Nodes), len(r.all))
	}
	r.events = snap.Events
	if err := r.loadKeys(snap.Keys); err != nil {
		return nil, err
	}
	for i, n := range r.all {
		ns := &snap.Nodes[i]
		n.base = ns.Base
		n.emitFrom = ns.EmitFrom
		n.inputs = ns.Inputs
		n.updates = ns.Updates
		n.fired = ns.Fired
		if err := n.loadInstances(ns.Live, false, len(snap.Keys)); err != nil {
			return nil, err
		}
		if len(n.insts) > 0 && n.insts[0].m != n.base {
			return nil, fmt.Errorf("engine: snapshot base %d does not match first instance %d",
				n.base, n.insts[0].m)
		}
		for j := range ns.Frozen {
			fs := &ns.Frozen[j]
			k := fs.M - n.base
			if k < 0 || k >= int64(len(n.insts)) || n.insts[k].frzCap > 0 {
				return nil, fmt.Errorf("engine: snapshot frozen state of instance %d at %v matches no open instance", fs.M, n.w)
			}
			if err := n.loadSpan(n.insts[k], fs, true, len(snap.Keys)); err != nil {
				return nil, err
			}
		}
		n.curInst = nil
		n.curEnd = ns.CurEnd
		if ns.HasCur && len(n.insts) > 0 {
			// The cached tumbling instance is always the newest one.
			n.curInst = n.insts[len(n.insts)-1]
		}
	}
	return r, nil
}
