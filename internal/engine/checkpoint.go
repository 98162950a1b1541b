// Checkpointing: serialize a Runner's in-flight state (open window
// instances and their partial aggregates) so a stream can resume after a
// restart without replaying from the beginning. This addresses the
// operational concern the paper raises about Scotty — user-defined
// operators must integrate with each engine's state backend — by giving
// our engine a self-contained state backend.
//
// One codec generation exists, and it is the only state form ever
// encoded: a magic header followed by a gob record that names its plan
// (the aggregate function and, per operator, its window, exposed flag
// and parent) and mirrors the columnar store — per operator the open
// instances' live spans and, for instances carried across a plan swap
// whose straddling fire has not happened yet, their frozen spans, each
// one InstanceState. Anything without the header — earlier generations
// included — is rejected with ErrSnapshotVersion. This file is the
// engine's only gob site, and every shard's carried state travels as a
// Carried, so the packages that carry it (parallel, router, shardworker,
// server) never learn the encoding.
//
// Resume reads a record against the plan it resumes: the same plan
// restores it bit-exact — operator-shaped state continues the plan's own
// merge order — and a new plan is canonicalised by the importer
// (migrate.go). Restore and Snapshots promise the same plan.

package engine

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"

	"factorwindows/internal/agg"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
)

// snapshotMagic prefixes every snapshot: the codec's version. Every
// generation since the second starts with its first six bytes.
const snapshotMagic = "FWSNAP4\n"

// ErrSnapshotVersion reports state bytes from a codec generation this
// build does not read. The serving layers wrap it, so errors.Is finds
// it under every restore path.
var ErrSnapshotVersion = errors.New("engine: unsupported snapshot version")

// ErrOtherPlan reports a snapshot of another plan where the same plan
// is promised (Restore, Snapshots).
var ErrOtherPlan = errors.New("engine: snapshot belongs to another plan")

// snapshotRecord is the serialized form of a Runner.
type snapshotRecord struct {
	Fn     agg.Fn
	Events int64
	Keys   []uint64 // the shared slot→key table
	Nodes  []nodeState
}

// nodeState captures one operator: its place in the plan, its open
// instances' live spans (consecutive M), and the frozen spans of those
// that hold one.
type nodeState struct {
	plan.Node
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

// shape is the Nodes of the plan the record was taken on.
func (rec *snapshotRecord) shape() []plan.Node {
	shape := make([]plan.Node, len(rec.Nodes))
	for i := range rec.Nodes {
		shape[i] = rec.Nodes[i].Node
	}
	return shape
}

// takenOn reports whether the record was taken on the plan of fn and
// shape.
func (rec *snapshotRecord) takenOn(fn agg.Fn, shape []plan.Node) bool {
	return rec.Fn == fn && slices.Equal(rec.shape(), shape)
}

// record reads the Runner's current state.
func (r *Runner) record() (*snapshotRecord, error) {
	if r.closed {
		return nil, fmt.Errorf("engine: Snapshot after Close")
	}
	rec := &snapshotRecord{
		Fn:     r.fn,
		Events: r.events,
		Keys:   append([]uint64(nil), r.keyed.keys...),
	}
	for i, n := range r.all {
		ns := nodeState{
			Node:     r.shape[i],
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
		rec.Nodes = append(rec.Nodes, ns)
	}
	return rec, nil
}

// Snapshot serializes the Runner's current state. The Runner
// remains usable; snapshots are consistent at batch boundaries (take
// them between Process calls).
func (r *Runner) Snapshot() ([]byte, error) {
	rec, err := r.record()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("engine: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeSnapshot reads a snapshot blob, rejecting anything that does
// not carry the current magic header.
func decodeSnapshot(data []byte) (*snapshotRecord, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return nil, fmt.Errorf("%w: blob lacks the %q header", ErrSnapshotVersion, snapshotMagic)
	}
	rec := new(snapshotRecord)
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapshotMagic):])).Decode(rec); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	return rec, nil
}

// Carried is the state one sharded execution hands the next: per shard
// the quiescent engine itself (in process) or its snapshot bytes, plus
// the ingest counter. The zero value carries nothing and every shard
// starts fresh.
type Carried struct {
	Events int64
	Shards []ShardState
}

// ShardState is one shard's part of a Carried; the zero value starts the
// shard fresh.
type ShardState struct {
	eng  *Runner
	blob []byte
	rec  *snapshotRecord // blob decoded, when Snapshots already has
}

// Quiescent carries an engine as it stands; it must not process
// anything until Resume has read it.
func Quiescent(r *Runner) ShardState { return ShardState{eng: r} }

// Encoded carries snapshot bytes as they came off a wire or a disk.
func Encoded(blob []byte) ShardState { return ShardState{blob: blob} }

// Bytes is the state's encoded form.
func (s ShardState) Bytes() ([]byte, error) {
	if s.eng != nil {
		return s.eng.Snapshot()
	}
	return s.blob, nil
}

// Snapshots carries a checkpoint's per-shard blobs for p. A checkpoint
// promises the same plan, bit-exact, so before either tier builds a
// shard it refuses blobs of another snapshot generation
// (ErrSnapshotVersion), of no snapshot at all, and of another plan
// (ErrOtherPlan).
func Snapshots(p *plan.Plan, blobs [][]byte, events int64) (Carried, error) {
	shape := p.Nodes()
	c := Carried{Events: events, Shards: make([]ShardState, len(blobs))}
	for i, b := range blobs {
		if !bytes.HasPrefix(b, []byte(snapshotMagic[:6])) {
			return Carried{}, fmt.Errorf("engine: shard %d's state is not a snapshot", i)
		}
		rec, err := decodeSnapshot(b)
		if err != nil {
			return Carried{}, fmt.Errorf("shard %d: %w", i, err)
		}
		if !rec.takenOn(p.Fn, shape) {
			return Carried{}, fmt.Errorf("%w: shard %d", ErrOtherPlan, i)
		}
		c.Shards[i] = ShardState{blob: b, rec: rec}
	}
	return c, nil
}

// Resume compiles p and resumes it from one shard's carried state. State
// of p itself restores exactly. State of another plan — a record is
// first restored into the plan it names, validated since the bytes may
// come off a socket — is canonicalised at freshFloor, the re-plan
// horizon, and each window p shares imports it. Windows it does not
// cover, or all of them when nothing is carried, start fresh with their
// exposed-result floor at freshFloor. It returns the number of window
// instances carried over.
func Resume(p *plan.Plan, sink stream.Sink, st ShardState, freshFloor int64) (*Runner, int, error) {
	r, err := New(p, sink)
	if err != nil {
		return nil, 0, err
	}
	n, err := r.resume(p, st, freshFloor)
	if err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// resume fills the Runner New just built for p from st.
func (r *Runner) resume(p *plan.Plan, st ShardState, horizon int64) (int, error) {
	old, rec := st.eng, st.rec
	var err error
	switch {
	case rec != nil:
	case len(st.blob) > 0:
		rec, err = decodeSnapshot(st.blob)
	case old == nil:
		return r.importCanonical(nil, horizon)
	case old.fn == r.fn && slices.Equal(old.shape, r.shape):
		rec, err = old.record()
	}
	if err != nil {
		return 0, err
	}
	if rec != nil {
		if rec.takenOn(r.fn, r.shape) {
			return r.restore(rec)
		}
		if old, err = rec.runner(p); err != nil {
			return 0, err
		}
	}
	ex, err := old.exportCanonical(horizon)
	if err != nil {
		return 0, err
	}
	return r.importCanonical(ex, horizon)
}

// runner restores the record into a Runner of the plan it names, which
// must aggregate like p; it takes p's finalize parameter.
func (rec *snapshotRecord) runner(p *plan.Plan) (*Runner, error) {
	if rec.Fn != p.Fn {
		return nil, fmt.Errorf("engine: snapshot aggregates with %v, plan with %v", rec.Fn, p.Fn)
	}
	op, err := plan.FromNodes(rec.Fn, rec.shape())
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot plan: %w", err)
	}
	op.Param = p.Param
	r, err := New(op, &stream.CountingSink{})
	if err == nil {
		_, err = r.restore(rec)
	}
	return r, err
}

// Restore builds a Runner for p whose state is resumed from a snapshot
// previously taken on an identical plan; one of another plan fails
// with ErrOtherPlan. Processing continues from the next batch after the
// snapshot point.
func Restore(p *plan.Plan, sink stream.Sink, data []byte) (*Runner, error) {
	r, err := New(p, sink)
	if err != nil {
		return nil, err
	}
	rec, err := decodeSnapshot(data)
	if err == nil && !rec.takenOn(r.fn, r.shape) {
		err = ErrOtherPlan
	}
	if err == nil {
		_, err = r.restore(rec)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// restore loads a record of the Runner's own plan into the fresh Runner
// New built. It returns the number of open instances holding state.
func (r *Runner) restore(rec *snapshotRecord) (int, error) {
	r.events = rec.Events
	if err := r.loadKeys(rec.Keys); err != nil {
		return 0, err
	}
	carried := 0
	for i, n := range r.all {
		ns := &rec.Nodes[i]
		n.base = ns.Base
		n.emitFrom = ns.EmitFrom
		n.inputs = ns.Inputs
		n.updates = ns.Updates
		n.fired = ns.Fired
		if err := n.loadInstances(ns.Live, false, len(rec.Keys)); err != nil {
			return 0, err
		}
		if len(n.insts) > 0 && n.insts[0].m != n.base {
			return 0, fmt.Errorf("engine: snapshot base %d does not match first instance %d",
				n.base, n.insts[0].m)
		}
		for _, is := range ns.Live {
			if len(is.Slots) > 0 {
				carried++
			}
		}
		for j := range ns.Frozen {
			fs := &ns.Frozen[j]
			k := fs.M - n.base
			if k < 0 || k >= int64(len(n.insts)) || n.insts[k].frzCap > 0 {
				return 0, fmt.Errorf("engine: snapshot frozen state of instance %d at %v matches no open instance", fs.M, n.w)
			}
			if err := n.loadSpan(n.insts[k], fs, true, len(rec.Keys)); err != nil {
				return 0, err
			}
			if len(ns.Live[k].Slots) == 0 {
				carried++
			}
		}
		n.curInst = nil
		n.curEnd = ns.CurEnd
		if ns.HasCur && len(n.insts) > 0 {
			// The cached tumbling instance is always the newest one.
			n.curInst = n.insts[len(n.insts)-1]
		}
	}
	return carried, nil
}
