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

// InstanceState is one open window instance's per-key state: the
// occupied key slots with their cells as parallel vectors, plus raw
// values (parallel to Slots) for exact holistic functions, or serialized
// sketch state (parallel to Slots) for sketch-backed ones.
type InstanceState struct {
	M      int64
	Slots  []int32
	Cells  []agg.Cell
	Raw    [][]float64
	Sketch [][]byte
}

// windowState is the canonical migration state of one window: its open
// instances (consecutive M) and the exposed-result floor they carry.
type windowState struct {
	W window.Window
	// ValidFrom is the window's exposed-result floor: instances starting
	// before it opened before the window existed and are partial.
	ValidFrom int64
	Instances []InstanceState
}

// export is a Runner's canonical migration state: everything a new plan
// needs to resume the same windows with no skipped instances. Unlike a
// snapshot it is structure-independent — it describes windows, not
// operators — so it imports into any plan containing the same windows,
// whatever its sharing structure. It is never encoded: Resume computes
// it from a quiescent engine, or from a snapshot restored into the plan
// it was taken on, and imports it in the same call.
type export struct {
	Fn      agg.Fn
	Keys    []uint64 // the shared slot→key table
	Events  int64
	Windows []windowState
}

// maxExportSpan bounds the instances the export materializes for one
// window: far above the Range/Slide a runnable plan holds open, so that
// a hostile record naming instances far apart fails instead of looping.
const maxExportSpan = 1 << 16

// exportCanonical computes the Runner's canonical migration state at
// horizon: every event strictly below horizon has been processed, and
// every future event arrives at or above it (the reorder buffer's
// release horizon, or lastEventTime+1 for a bare in-order stream). The
// Runner remains usable; like Snapshot, call it between Process calls.
func (r *Runner) exportCanonical(horizon int64) (*export, error) {
	if r.closed {
		return nil, fmt.Errorf("engine: export after Close")
	}
	ex := &export{
		Fn:     r.fn,
		Keys:   append([]uint64(nil), r.keyed.keys...),
		Events: r.events,
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

	var wide error
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
		// instance fired with it.) cover lists those parent instances,
		// each with the range [clo, chi] of this node's instances covering
		// it. Both bounds ascend with the parent instance, so each
		// instance's contributors are a contiguous run of cover.
		type contribution struct {
			clo, chi int64
			span     int32
			offs     []int32
		}
		var cover []contribution
		cloMin := int64(1<<62 - 1)
		if parent != nil {
			pc := canon[parent]
			for i, pspan := range pc.live {
				offs := scratch.AppendLive(pspan, pc.caps[i], nil)
				if len(offs) == 0 {
					continue
				}
				iv := parent.w.Instance(pc.base + int64(i))
				if clo, chi, ok := n.w.InstancesCovering(iv.Start, iv.End); ok {
					hi, cloMin = max(hi, chi), min(cloMin, clo)
					cover = append(cover, contribution{clo: clo, chi: chi, span: pspan, offs: offs})
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
		if hi >= lo && uint64(hi-lo) >= maxExportSpan {
			wide = fmt.Errorf("engine: export of %v spans instances %d to %d", n.w, lo, hi)
			hi = lo - 1
		}
		nc.base = lo
		first := 0
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
			for first < len(cover) && cover[first].chi < m {
				first++
			}
			end := first
			for end < len(cover) && cover[end].clo <= m {
				end++
			}
			covered := cover[first:end]
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
	if wide != nil {
		return nil, wide
	}

	for _, n := range r.all {
		nc := canon[n]
		ws := windowState{W: n.w, ValidFrom: n.emitFrom}
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
			is, err := spanState(scratch, nc.base+int64(i), nc.full[i], nc.caps[i])
			if err != nil {
				return nil, err
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
func (r *Runner) importCanonical(ex *export, freshFloor int64) (int, error) {
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
	byWindow := make(map[window.Window]*windowState, len(ex.Windows))
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
		if err := n.loadInstances(ws.Instances, true, len(ex.Keys)); err != nil {
			return migrated, err
		}
		n.base = n.insts[0].m
		for _, is := range ws.Instances {
			if len(is.Slots) > 0 {
				migrated++
			}
		}
		n.curInst = nil
		n.curEnd = 0
	}
	return migrated, nil
}

// spanState reads the occupied rows of the span at base into an
// instance record: the one reader of spans that snapshots and exports
// share.
func spanState(store *agg.Store, m int64, base, cap int32) (InstanceState, error) {
	is := InstanceState{M: m, Slots: store.AppendLive(base, cap, nil)}
	if len(is.Slots) == 0 {
		return InstanceState{M: m}, nil
	}
	is.Cells = make([]agg.Cell, len(is.Slots))
	if store.Holistic() {
		is.Raw = make([][]float64, len(is.Slots))
	}
	if store.Sketched() {
		is.Sketch = make([][]byte, len(is.Slots))
	}
	for i, off := range is.Slots {
		row := base + off
		is.Cells[i] = store.CellAt(row)
		if is.Raw != nil {
			is.Raw[i] = append([]float64(nil), store.RawAt(row)...)
		}
		if is.Sketch != nil {
			blob, err := store.SketchAt(row)
			if err != nil {
				return is, fmt.Errorf("engine: encoding sketch state of instance %d: %w", m, err)
			}
			is.Sketch[i] = blob
		}
	}
	return is, nil
}

// loadInstances replaces the node's open instances with carried ones —
// consecutive M once sorted — each loaded as its live or its frozen
// span.
func (n *node) loadInstances(states []InstanceState, frozen bool, keyCount int) error {
	sort.Slice(states, func(a, b int) bool { return states[a].M < states[b].M })
	n.insts, n.head = n.insts[:0], 0
	for j := range states {
		if j > 0 && states[j].M != states[j-1].M+1 {
			return fmt.Errorf("engine: carried instances not consecutive at %v", n.w)
		}
		inst := n.newInstance(states[j].M)
		n.insts = append(n.insts, inst)
		if err := n.loadSpan(inst, &states[j], frozen, keyCount); err != nil {
			return err
		}
	}
	return nil
}

// loadSpan validates one carried instance record and writes its rows
// into inst: into the live span, grown to fit, or into a frozen span of
// their own (migrated straddling state whose fire has not happened
// yet). It is the one loader of spanState's records.
func (n *node) loadSpan(inst *instance, is *InstanceState, frozen bool, keyCount int) error {
	if len(is.Slots) == 0 {
		return nil
	}
	if len(is.Cells) != len(is.Slots) || (is.Raw != nil && len(is.Raw) != len(is.Slots)) ||
		(is.Sketch != nil && len(is.Sketch) != len(is.Slots)) {
		return fmt.Errorf("engine: instance %d of %v has ragged columns", inst.m, n.w)
	}
	if n.store.Sketched() && is.Sketch == nil {
		return fmt.Errorf("engine: instance %d of %v carries no sketch state for %v", inst.m, n.w, n.fn)
	}
	maxSlot := int32(-1)
	for idx, slot := range is.Slots {
		if slot < 0 || int(slot) >= keyCount {
			return fmt.Errorf("engine: slot %d out of range at %v", slot, n.w)
		}
		if is.Cells[idx].Cnt <= 0 {
			// Only live rows are carried; a non-positive count would
			// write column values without marking the row occupied,
			// poisoning the span for later tenants.
			return fmt.Errorf("engine: cell with count %d at %v", is.Cells[idx].Cnt, n.w)
		}
		maxSlot = max(maxSlot, slot)
	}
	var base int32
	if frozen {
		inst.frz, inst.frzCap = n.store.Alloc(maxSlot + 1)
		base = inst.frz
	} else {
		n.growInstance(inst, maxSlot+1)
		base = inst.span
	}
	for idx, slot := range is.Slots {
		n.store.SetCellAt(base+slot, is.Cells[idx])
		if is.Raw != nil {
			n.store.SetRawAt(base+slot, is.Raw[idx])
		}
		if is.Sketch != nil {
			if err := n.store.SetSketchAt(base+slot, is.Sketch[idx]); err != nil {
				return fmt.Errorf("engine: sketch state at %v: %w", n.w, err)
			}
		}
	}
	return nil
}

// loadKeys installs a carried slot→key table (a snapshot's or an
// export's) on a fresh Runner, indexing it once at its final size. A key
// listed twice would own two slots, and every instance holding both
// would fire two rows for it.
func (r *Runner) loadKeys(keys []uint64) error {
	t := keyTable{keys: make([]uint64, 0, len(keys))}
	size := minIndex
	for size < 2*len(keys) {
		size *= 2
	}
	t.rebuild(size)
	for slot, key := range keys {
		if prev, dup := t.lookup(key); dup {
			return fmt.Errorf("engine: key %d appears in slots %d and %d of the carried key table", key, prev, slot)
		}
		t.add(key)
	}
	r.keyed = t
	return nil
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}
