// Live plan migration: exact handover of open window-instance state
// between two Runners executing different plans over the same stream.
//
// The paper's premise is a *changing* query set sharing one stream
// (Section I); this file is what makes a plan change free of output
// gaps. A re-plan at release horizon R (every event below R executed,
// every future event at or above R) exports, for every window of the
// old plan, the canonical state of each open instance — the aggregate
// contribution of all events seen so far, regardless of how the old
// plan's sharing structure had distributed that contribution across
// operators — and imports it into whichever nodes of the new plan carry
// the same window.
//
// # Canonicalization (export)
//
// A node's local state is not canonical on its own: a shared operator
// has only received the sub-aggregates its parent already fired; the
// events of the parent's still-open instances live in the parent. The
// export therefore walks the plan top-down and computes, per window W
// and open instance m,
//
//	canonical(W, m) = local(W, m) ⊕ Σ canonical(P, p)
//
// over the parent P's open instances p whose interval is covered by
// m's interval — exactly the instances whose future fire would have
// delivered the missing contribution. Open parent instances are
// disjoint under "partitioned by" and overlap-safe under "covered by"
// (the same dichotomy the engine's delivery path relies on), so the
// merge is exact for every shareable function. Instances of W that the
// old plan had not materialized yet but that cover already-seen events
// (possible when W was fed by a lagging parent) are materialized by the
// export with parent contributions only.
//
// # Import and the frozen span
//
// Each imported instance lands in a *frozen* span next to a fresh live
// span (see instance in engine.go). Post-migration input folds into the
// live span; on fire, the exposed result is frozen ⊕ live while child
// operators receive only the live rows. That split is what keeps the
// handover exact at every level: a child's own frozen span already
// holds the pre-migration contribution (canonical includes the parent's
// open instances), so the parent must deliver only what arrived after
// the swap — which is also precisely what a *new* parent (a factor
// window that only exists in the new plan) naturally delivers from its
// partially-observed straddling instances.
//
// Windows absent from the export start fresh; their straddling
// instances are partial by construction, and the per-node emitFrom
// floor suppresses their exposed results — the pre-migration semantics,
// now confined to genuinely new windows.

package engine

import (
	"fmt"
	"sort"

	"factorwindows/internal/agg"
	"factorwindows/internal/window"
)

// InstanceState is one open window instance's canonical per-key state:
// the occupied key slots with their cells as parallel vectors, plus raw
// values (parallel to Slots) for exact holistic functions, or serialized
// sketch state (parallel to Slots; gob leaves it empty when decoding
// exports taken before the sketch-backed aggregates existed) for
// sketch-backed ones.
type InstanceState struct {
	M      int64
	Slots  []int32
	Cells  []agg.Cell
	Raw    [][]float64
	Sketch [][]byte
}

// WindowState is the canonical migration state of one window: its open
// instances (consecutive M) and the exposed-result floor they carry.
type WindowState struct {
	W window.Window
	// ValidFrom is the window's exposed-result floor: instances starting
	// before it opened before the window existed and are partial.
	ValidFrom int64
	Instances []InstanceState
}

// Export is a Runner's canonical migration state: everything a new plan
// needs to resume the same windows with no skipped instances. Unlike a
// Snapshot it is structure-independent — it describes windows, not
// operators — so it imports into any plan containing the same windows,
// whatever its sharing structure. EncodeExport/DecodeExport
// (checkpoint.go) are its one wire form.
type Export struct {
	Fn      agg.Fn
	Keys    []uint64 // the shared slot→key table
	Events  int64
	Horizon int64
	Windows []WindowState
}

// ExportCanonical computes the Runner's canonical migration state at
// horizon: every event strictly below horizon has been processed, and
// every future event arrives at or above it (the reorder buffer's
// release horizon, or lastEventTime+1 for a bare in-order stream). The
// Runner remains usable; like Snapshot, call it between Process calls.
func (r *Runner) ExportCanonical(horizon int64) (*Export, error) {
	if r.closed {
		return nil, fmt.Errorf("engine: ExportCanonical after Close")
	}
	ex := &Export{
		Fn:      r.fn,
		Keys:    append([]uint64(nil), r.keyed.keys...),
		Events:  r.events,
		Horizon: horizon,
	}
	// Canonical states accumulate in a scratch store, two spans per
	// (node, open instance), sized to each instance's occupied slots:
	//
	//   - live: what the instance will deliver to children on its future
	//     fire — its live state plus the live chain of covered open
	//     parent instances. This is what child canonicals absorb; it
	//     must exclude frozen state, exactly as fireFrozen withholds it,
	//     or a second migration would re-deliver what the child's own
	//     frozen span (imported from an earlier migration) already holds.
	//   - full: the instance's exported state — live plus its own frozen
	//     part (the union an exposed fire would report).
	type nodeCanon struct {
		base int64 // m of live[0]/full[0]
		live []int32
		full []int32
		caps []int32
	}
	scratch := agg.NewStore(r.fn)
	canon := make(map[*node]*nodeCanon, len(r.all))

	var walk func(n *node, parent *node)
	walk = func(n *node, parent *node) {
		nc := &nodeCanon{}
		canon[n] = nc
		lo := n.base
		hi := lo + int64(len(n.insts)-n.head) - 1
		// Extend past the node's own open range to every instance covering
		// a non-empty canonical instance of the parent: a lagging parent
		// had not materialized those here yet, but its open instances hold
		// their events. (An instance below the open range cannot cover an
		// open parent instance — it already fired, so every covered parent
		// instance fired with it.)
		cloMin := int64(1<<62 - 1)
		if parent != nil {
			pc := canon[parent]
			for i, pspan := range pc.live {
				if len(scratch.AppendLive(pspan, pc.caps[i], nil)) == 0 {
					continue
				}
				iv := parent.w.Instance(pc.base + int64(i))
				if clo, chi, ok := n.w.InstancesCovering(iv.Start, iv.End); ok {
					if chi > hi {
						hi = chi
					}
					if clo < cloMin {
						cloMin = clo
					}
				}
			}
		}
		if len(n.insts)-n.head == 0 && hi >= lo {
			// The node had no open instances, so its stale base says
			// nothing about where live state resumes — without a floor, a
			// node idle since tick 0 would make this walk materialize
			// every index up to horizon/slide. Everything it can still
			// receive ends at or above the horizon, so start at the
			// lowest covered parent instance, bounded by the horizon
			// straddler floor (future inputs end above the horizon, so an
			// imported base at the floor can never be overtaken).
			floor := ceilDiv(horizon+1-n.w.Range, n.w.Slide)
			if cloMin < floor {
				floor = cloMin
			}
			if floor > lo {
				lo = floor
			}
		}
		nc.base = lo
		for m := lo; m <= hi; m++ {
			// Gather the instance's contributors first, so the scratch
			// spans are sized to the occupied slots rather than the full
			// key table — a key-heavy export must not allocate
			// O(keys × instances × nodes) scratch.
			var ownLive, ownFrz []int32
			var inst *instance
			if idx := n.head + int(m-n.base); idx < len(n.insts) {
				inst = n.insts[idx]
				ownLive = n.store.AppendLive(inst.span, inst.cap, nil)
				if inst.frzCap > 0 {
					ownFrz = n.store.AppendLive(inst.frz, inst.frzCap, nil)
				}
			}
			type contribution struct {
				span int32
				offs []int32
			}
			var covered []contribution
			if parent != nil {
				pc := canon[parent]
				for i, pspan := range pc.live {
					pm := pc.base + int64(i)
					iv := parent.w.Instance(pm)
					clo, chi, ok := n.w.InstancesCovering(iv.Start, iv.End)
					if !ok || m < clo || m > chi {
						continue
					}
					if offs := scratch.AppendLive(pspan, pc.caps[i], nil); len(offs) > 0 {
						covered = append(covered, contribution{span: pspan, offs: offs})
					}
				}
			}
			need := int32(1)
			for _, offs := range [][]int32{ownLive, ownFrz} {
				if len(offs) > 0 && offs[len(offs)-1]+1 > need {
					need = offs[len(offs)-1] + 1
				}
			}
			for _, c := range covered {
				if last := c.offs[len(c.offs)-1] + 1; last > need {
					need = last
				}
			}
			liveSpan, c := scratch.Alloc(need)
			fullSpan, _ := scratch.Alloc(need)
			nc.live = append(nc.live, liveSpan)
			nc.full = append(nc.full, fullSpan)
			nc.caps = append(nc.caps, c)
			if len(ownLive) > 0 {
				scratch.MergeSpan(liveSpan, n.store, inst.span, ownLive)
			}
			for _, cv := range covered {
				scratch.MergeSpan(liveSpan, scratch, cv.span, cv.offs)
			}
			offs := scratch.AppendLive(liveSpan, c, nil)
			scratch.MergeSpan(fullSpan, scratch, liveSpan, offs)
			if len(ownFrz) > 0 {
				scratch.MergeSpan(fullSpan, n.store, inst.frz, ownFrz)
			}
		}
		for _, c := range n.children {
			walk(c, n)
		}
	}
	for _, root := range r.roots {
		walk(root, nil)
	}

	for _, n := range r.all {
		nc := canon[n]
		ws := WindowState{W: n.w, ValidFrom: n.emitFrom}
		// Trim trailing empty instances: they carry no state and the
		// importer's ensure() re-materializes past the end for free.
		// Leading empties must stay — the exported base is the node's
		// exact fired/unfired boundary, and a future event may still
		// land in an empty leading instance; importing a higher base
		// would make that event look out-of-order.
		first, last := 0, len(nc.full)-1
		isEmpty := func(i int) bool {
			return len(scratch.AppendLive(nc.full[i], nc.caps[i], nil)) == 0
		}
		for last >= first && isEmpty(last) {
			last--
		}
		if last < first {
			// Nothing open and nothing covered: leave the node fresh (the
			// first ensure() sets its base directly).
			ex.Windows = append(ex.Windows, ws)
			continue
		}
		for i := first; i <= last; i++ {
			is := InstanceState{M: nc.base + int64(i)}
			for _, off := range scratch.AppendLive(nc.full[i], nc.caps[i], nil) {
				row := nc.full[i] + off
				is.Slots = append(is.Slots, off)
				is.Cells = append(is.Cells, scratch.CellAt(row))
				if scratch.Holistic() {
					is.Raw = append(is.Raw, append([]float64(nil), scratch.RawAt(row)...))
				}
				if scratch.Sketched() {
					blob, err := scratch.SketchAt(row)
					if err != nil {
						return nil, fmt.Errorf("engine: exporting sketch state of %v: %w", n.w, err)
					}
					is.Sketch = append(is.Sketch, blob)
				}
			}
			ws.Instances = append(ws.Instances, is)
		}
		ex.Windows = append(ex.Windows, ws)
	}
	return ex, nil
}

// importCanonical seeds the Runner Resume has just built with the
// canonical state of a previous plan's export, materializing each
// surviving window's open instances with frozen spans. Windows absent
// from the export start fresh with their exposed-result floor at
// freshFloor. It returns the number of window instances handed over.
func (r *Runner) importCanonical(ex *Export, freshFloor int64) (int, error) {
	if ex == nil {
		for _, n := range r.all {
			n.emitFrom = freshFloor
		}
		return 0, nil
	}
	if ex.Fn != r.fn {
		return 0, fmt.Errorf("engine: export aggregates with %v, plan with %v", ex.Fn, r.fn)
	}
	r.events = ex.Events
	if err := r.loadKeys(ex.Keys); err != nil {
		return 0, err
	}
	byWindow := make(map[window.Window]*WindowState, len(ex.Windows))
	for i := range ex.Windows {
		byWindow[ex.Windows[i].W] = &ex.Windows[i]
	}
	migrated := 0
	for _, n := range r.all {
		ws := byWindow[n.w]
		if ws == nil {
			n.emitFrom = freshFloor
			continue
		}
		n.emitFrom = ws.ValidFrom
		if len(ws.Instances) == 0 {
			continue
		}
		sort.Slice(ws.Instances, func(a, b int) bool { return ws.Instances[a].M < ws.Instances[b].M })
		n.base = ws.Instances[0].M
		n.head = 0
		n.insts = n.insts[:0]
		for j := range ws.Instances {
			is := &ws.Instances[j]
			if j > 0 && is.M != ws.Instances[j-1].M+1 {
				return migrated, fmt.Errorf("engine: import instances not consecutive at %v", n.w)
			}
			inst := n.newInstance(is.M)
			if err := n.setFrozen(inst, is.Slots, is.Cells, is.Raw, is.Sketch, len(ex.Keys)); err != nil {
				return migrated, err
			}
			if len(is.Slots) > 0 {
				migrated++
			}
			n.insts = append(n.insts, inst)
		}
		n.curInst = nil
		n.curEnd = 0
	}
	return migrated, nil
}

// setFrozen validates one instance's serialized frozen-state vectors —
// the shared shape of migration imports and checkpointed mid-straddle
// state — and materializes them as the instance's frozen span.
func (n *node) setFrozen(inst *instance, slots []int32, cells []agg.Cell, raw [][]float64, sk [][]byte, keyCount int) error {
	if len(slots) == 0 {
		return nil
	}
	if len(cells) != len(slots) || (raw != nil && len(raw) != len(slots)) ||
		(sk != nil && len(sk) != len(slots)) {
		return fmt.Errorf("engine: instance %d of %v has ragged frozen columns", inst.m, n.w)
	}
	if n.store.Sketched() && sk == nil {
		return fmt.Errorf("engine: instance %d of %v carries no sketch state for %v", inst.m, n.w, n.fn)
	}
	maxSlot := int32(-1)
	for _, slot := range slots {
		if slot < 0 || int(slot) >= keyCount {
			return fmt.Errorf("engine: frozen slot %d out of range at %v", slot, n.w)
		}
		if slot > maxSlot {
			maxSlot = slot
		}
	}
	inst.frz, inst.frzCap = n.store.Alloc(maxSlot + 1)
	for idx, slot := range slots {
		if cells[idx].Cnt <= 0 {
			// Only live rows are serialized; a non-positive count would
			// write column values without marking the row occupied,
			// poisoning the span for later tenants.
			return fmt.Errorf("engine: frozen cell with count %d at %v", cells[idx].Cnt, n.w)
		}
		n.store.SetCellAt(inst.frz+slot, cells[idx])
		if raw != nil {
			n.store.SetRawAt(inst.frz+slot, raw[idx])
		}
		if sk != nil {
			if err := n.store.SetSketchAt(inst.frz+slot, sk[idx]); err != nil {
				return fmt.Errorf("engine: frozen sketch at %v: %w", n.w, err)
			}
		}
	}
	return nil
}

// loadKeys installs a carried slot→key table (a snapshot's or an
// export's) on a fresh Runner. A key listed twice would own two slots,
// and every instance holding both would fire two rows for it.
func (r *Runner) loadKeys(keys []uint64) error {
	r.keyed.keys = append([]uint64(nil), keys...)
	r.keyed.slots = make(map[uint64]int32, len(keys))
	for slot, key := range keys {
		if prev, dup := r.keyed.slots[key]; dup {
			return fmt.Errorf("engine: key %d appears in slots %d and %d of the carried key table", key, prev, slot)
		}
		r.keyed.slots[key] = int32(slot)
	}
	return nil
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}
