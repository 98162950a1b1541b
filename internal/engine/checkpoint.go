// Checkpointing: serialize a Runner's in-flight state (open window
// instances and their partial aggregates) so a stream can resume after a
// restart without replaying from the beginning. This addresses the
// operational concern the paper raises about Scotty — user-defined
// operators must integrate with each engine's state backend — by giving
// our engine a self-contained state backend.
//
// One codec generation exists: a magic header followed by a gob stream
// that mirrors the columnar store — per instance, a slot vector plus
// parallel cells (and raw-value buffers for holistic functions, sketch
// blobs for sketch-backed ones). Live plan migration added gob-optional
// fields — the per-node emit floor and per-instance frozen vectors
// (imported straddling state whose fire has not happened yet); blobs
// written before that decode with those fields empty, which is exactly
// the pre-migration semantics. Anything without the header — including
// the boxed-state blobs this repo wrote before the columnar refactor —
// is rejected with ErrSnapshotVersion.
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
	"sort"

	"factorwindows/internal/agg"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
)

// snapshotMagicV2 prefixes every snapshot: the codec's version byte.
const snapshotMagicV2 = "FWSNAP2\n"

// exportMagicV1 prefixes every encoded Export: foreign bytes fail typed.
const exportMagicV1 = "FWEXPT1\n"

// ErrSnapshotVersion reports state bytes from a codec generation this
// build does not read. The serving layers wrap it, so errors.Is finds
// it under every restore path.
var ErrSnapshotVersion = errors.New("engine: unsupported snapshot version")

// snapshotV2 is the serialized form of a Runner.
type snapshotV2 struct {
	Fingerprint string
	Events      int64
	Keys        []uint64 // the shared slot→key table
	Nodes       []nodeSnapshotV2
}

// nodeSnapshotV2 captures one operator's live state. EmitFrom was added
// with live plan migration; gob leaves it zero when decoding older
// blobs, which matches the pre-migration semantics (no floor).
type nodeSnapshotV2 struct {
	Fingerprint string // the operator's own identity within the plan
	Base        int64
	CurEnd      int64
	HasCur      bool
	EmitFrom    int64
	Instances   []instanceSnapshotV2
	Inputs      int64
	Updates     int64
	Fired       int64
}

// instanceSnapshotV2 captures one open window instance: the occupied
// key slots with their cells as parallel vectors, plus raw-value
// buffers (parallel to Slots) when the function is holistic. The Frz*
// vectors (added with live plan migration, absent — hence empty — in
// older blobs) capture the frozen span of an instance carried across a
// plan swap whose straddling fire has not happened yet.
type instanceSnapshotV2 struct {
	M        int64
	Slots    []int32
	Cells    []agg.Cell
	Raw      [][]float64
	FrzSlots []int32
	FrzCells []agg.Cell
	FrzRaw   [][]float64
	// Sketch/FrzSketch (parallel to Slots/FrzSlots) carry serialized
	// sketch state for sketch-backed aggregates — gob-optional like the
	// Frz* vectors, empty in blobs written before sketches existed (which
	// could not have used a sketch-backed function anyway).
	Sketch    [][]byte
	FrzSketch [][]byte
}

// fingerprint identifies the plan shape a snapshot belongs to.
func planFingerprint(all []*node, fn agg.Fn) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fn=%d;", fn)
	for _, n := range all {
		fmt.Fprintf(&b, "%s;", nodeFingerprint(n))
	}
	return b.String()
}

func nodeFingerprint(n *node) string {
	return fmt.Sprintf("w=%d/%d,x=%t,c=%d", n.w.Range, n.w.Slide, n.exposed, len(n.children))
}

// Snapshot serializes the Runner's current state. The Runner
// remains usable; snapshots are consistent at batch boundaries (take
// them between Process calls).
func (r *Runner) Snapshot() ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("engine: Snapshot after Close")
	}
	snap := snapshotV2{
		Fingerprint: planFingerprint(r.all, r.fn),
		Events:      r.events,
		Keys:        append([]uint64(nil), r.keyed.keys...),
	}
	for _, n := range r.all {
		ns := nodeSnapshotV2{
			Fingerprint: nodeFingerprint(n),
			Base:        n.base,
			CurEnd:      n.curEnd,
			HasCur:      n.curInst != nil,
			EmitFrom:    n.emitFrom,
			Inputs:      n.inputs,
			Updates:     n.updates,
			Fired:       n.fired,
		}
		for i := n.head; i < len(n.insts); i++ {
			inst := n.insts[i]
			is := instanceSnapshotV2{M: inst.m}
			for _, off := range n.store.AppendLive(inst.span, inst.cap, nil) {
				row := inst.span + off
				is.Slots = append(is.Slots, off)
				is.Cells = append(is.Cells, n.store.CellAt(row))
				if n.store.Holistic() {
					is.Raw = append(is.Raw, append([]float64(nil), n.store.RawAt(row)...))
				}
				if n.store.Sketched() {
					blob, err := n.store.SketchAt(row)
					if err != nil {
						return nil, fmt.Errorf("engine: encoding sketch state of %v: %w", n.w, err)
					}
					is.Sketch = append(is.Sketch, blob)
				}
			}
			if inst.frzCap > 0 {
				for _, off := range n.store.AppendLive(inst.frz, inst.frzCap, nil) {
					row := inst.frz + off
					is.FrzSlots = append(is.FrzSlots, off)
					is.FrzCells = append(is.FrzCells, n.store.CellAt(row))
					if n.store.Holistic() {
						is.FrzRaw = append(is.FrzRaw, append([]float64(nil), n.store.RawAt(row)...))
					}
					if n.store.Sketched() {
						blob, err := n.store.SketchAt(row)
						if err != nil {
							return nil, fmt.Errorf("engine: encoding frozen sketch state of %v: %w", n.w, err)
						}
						is.FrzSketch = append(is.FrzSketch, blob)
					}
				}
			}
			ns.Instances = append(ns.Instances, is)
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	var buf bytes.Buffer
	buf.WriteString(snapshotMagicV2)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("engine: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeSnapshot reads a snapshot blob, rejecting anything that does
// not carry the current magic header.
func decodeSnapshot(data []byte) (snapshotV2, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagicV2)) {
		return snapshotV2{}, fmt.Errorf("%w: blob lacks the %q header", ErrSnapshotVersion, snapshotMagicV2)
	}
	var snap snapshotV2
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapshotMagicV2):])).Decode(&snap); err != nil {
		return snapshotV2{}, fmt.Errorf("engine: decoding snapshot: %w", err)
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
		if !bytes.HasPrefix(b, []byte(snapshotMagicV2)) {
			return Carried{}, fmt.Errorf("%w: shard %d's state lacks the %q header", ErrSnapshotVersion, i, snapshotMagicV2)
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
	if bytes.HasPrefix(st.blob, []byte(snapshotMagicV2)) {
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
		if nodeFingerprint(n) != ns.Fingerprint {
			return nil, fmt.Errorf("engine: operator %d mismatch", i)
		}
		n.base = ns.Base
		n.emitFrom = ns.EmitFrom
		n.inputs = ns.Inputs
		n.updates = ns.Updates
		n.fired = ns.Fired
		sort.Slice(ns.Instances, func(a, b int) bool { return ns.Instances[a].M < ns.Instances[b].M })
		n.insts = n.insts[:0]
		n.head = 0
		for j := range ns.Instances {
			is := &ns.Instances[j]
			if j > 0 && is.M != ns.Instances[j-1].M+1 {
				return nil, fmt.Errorf("engine: snapshot instances not consecutive at %v", n.w)
			}
			if len(is.Cells) != len(is.Slots) || (is.Raw != nil && len(is.Raw) != len(is.Slots)) ||
				(is.Sketch != nil && len(is.Sketch) != len(is.Slots)) {
				return nil, fmt.Errorf("engine: snapshot instance %d of %v has ragged columns", is.M, n.w)
			}
			if n.store.Sketched() && len(is.Slots) > 0 && is.Sketch == nil {
				return nil, fmt.Errorf("engine: snapshot instance %d of %v carries no sketch state", is.M, n.w)
			}
			inst := n.newInstance(is.M)
			for idx, slot := range is.Slots {
				if slot < 0 || int(slot) >= len(snap.Keys) {
					return nil, fmt.Errorf("engine: snapshot slot %d out of range at %v", slot, n.w)
				}
				if is.Cells[idx].Cnt <= 0 {
					// Snapshots record only live rows; a non-positive count
					// would write column values without marking the row
					// occupied, poisoning the span for later tenants.
					return nil, fmt.Errorf("engine: snapshot cell with count %d at %v",
						is.Cells[idx].Cnt, n.w)
				}
				if slot >= inst.cap {
					n.growInstance(inst, slot+1)
				}
				n.store.SetCellAt(inst.span+slot, is.Cells[idx])
				if is.Raw != nil {
					n.store.SetRawAt(inst.span+slot, is.Raw[idx])
				}
				if is.Sketch != nil {
					if err := n.store.SetSketchAt(inst.span+slot, is.Sketch[idx]); err != nil {
						return nil, fmt.Errorf("engine: snapshot sketch at %v: %w", n.w, err)
					}
				}
			}
			if err := n.setFrozen(inst, is.FrzSlots, is.FrzCells, is.FrzRaw, is.FrzSketch, len(snap.Keys)); err != nil {
				return nil, err
			}
			n.insts = append(n.insts, inst)
		}
		if len(n.insts) > 0 && n.insts[0].m != n.base {
			return nil, fmt.Errorf("engine: snapshot base %d does not match first instance %d",
				n.base, n.insts[0].m)
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
