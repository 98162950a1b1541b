// Package engine executes multi-window aggregation plans over in-order
// event streams. It is the library's stand-in for the Trill/ASA runtime
// the paper rewrites queries for: a single-core, push-based pipeline with
// the three operators the rewritten plans need — MultiCast (implicit in
// plan fan-out), windowed GroupAggregate, and Union (the shared sink).
//
// Each plan operator maintains per-(window instance, key) partial
// aggregates in a columnar agg.Store: an instance is a contiguous span
// of rows, raw events fold in through the store's Add kernels, and
// operators with a plan parent consume the parent's per-instance
// sub-aggregates through the Merge kernels — exactly the
// computation-sharing the cost model prices: an instance fed from a
// parent performs M(W, parent) merges instead of η·r event updates.
//
// Window instances complete by watermark: inputs arrive ordered by
// interval end (raw events are unit intervals [t, t+1); parents emit
// instances in increasing end order), so once an input with end v
// arrives, every instance with end < v can fire and be reclaimed.
package engine

import (
	"fmt"

	"factorwindows/internal/agg"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// Sub-aggregates flow from a parent operator to its children as whole
// fired spans: the parent hands each child its store, the fired span's
// base and the live key offsets (processSubSpan). Slot numbering is
// shared across the whole plan, so children consume sub-aggregates
// without re-keying — they arrive pre-grouped, exactly as a keyed
// sub-aggregate stream does in Trill — and because every row of a fired
// instance shares one [start, end) interval, window placement resolves
// once per span instead of once per row. The rows stay owned by the
// parent; children must consume them synchronously (before the parent
// releases the span).

// instance is one active window instance: a contiguous span of rows in
// the node's columnar store, addressed as span+slot. cap is the span's
// granted capacity; it grows (moving the span) when the key table
// outgrows it.
//
// An instance that was carried across a live plan migration additionally
// owns a frozen span (frzCap > 0): the canonical pre-migration state
// imported from the previous plan. Raw events and sub-aggregates keep
// folding into the live span; on fire, the exposed result finalizes
// frozen ⊕ live while children consume only the live rows — their own
// imported state already accounts for the frozen part (see migrate.go).
type instance struct {
	m      int64
	span   int32
	cap    int32
	frz    int32
	frzCap int32 // 0: no frozen state
}

// node is the runtime form of a plan operator.
type node struct {
	w       window.Window
	k       int64 // w.Range / w.Slide, cached for the raw fast path
	fn      agg.Fn
	exposed bool
	sink    stream.Sink

	// emitFrom suppresses exposed results of instances starting before
	// it: those instances opened before this node existed (a query or
	// plan registered mid-stream), so their state is partial by
	// construction. Instances migrated across a plan swap carry their
	// original floor instead, so surviving windows lose nothing. The
	// zero value emits everything (fresh stand-alone runners).
	emitFrom int64

	children []*node

	// store holds every active instance's per-key partial aggregates as
	// function-specialized columns; instances are spans in it.
	store *agg.Store

	// Active instances insts[head:] hold consecutive m values starting at
	// base (the m of insts[head]).
	insts []*instance
	head  int
	base  int64

	// curInst/curEnd cache the single active instance of tumbling (k=1)
	// operators, giving the raw path the same per-event shape as a plain
	// slice store: one comparison, one map access.
	curInst *instance
	curEnd  int64

	// shared points at the Runner's canonical key table. Raw readers
	// still pay one grouping lookup per event (as Trill's per-operator
	// GroupAggregate does); sub-aggregates arrive pre-slotted.
	shared *keyTable

	instPool []*instance

	// Reusable kernel scratch, so the steady-state hot path never
	// allocates: span bases per sub-aggregate span (hopping fan-out),
	// live offsets per fired instance, and the two columns of the run
	// one fire hands the sink — the batch-finalized values and the
	// gathered keys. Oversized buffers are dropped after the fire (see
	// capEgressBuffers).
	baseBuf []int32
	liveBuf []int32
	finBuf  []float64
	keyBuf  []uint64

	// stats
	inputs  int64 // items consumed (raw events or sub-aggregates)
	updates int64 // per-instance state updates (Add/Merge operations)
	fired   int64 // instances emitted
}

// Runner executes one plan. It is not safe for concurrent use; the
// paper's experiments (and our benchmarks) are single-core.
type Runner struct {
	fn    agg.Fn
	roots []*node
	all   []*node
	sink  stream.Sink

	keyed keyTable

	// slotBuf/valBuf are the per-batch pre-pass outputs: every event's
	// canonical key slot and value, resolved once per Process call and
	// shared by all plan nodes (each root would otherwise re-hash every
	// event through the key table).
	slotBuf []int32
	valBuf  []float64

	closed bool
	events int64
}

// keyTable assigns dense canonical slots to group keys, shared by every
// operator of a plan so sub-aggregate slots mean the same thing
// everywhere.
type keyTable struct {
	slots map[uint64]int32
	keys  []uint64
}

func (t *keyTable) slot(key uint64) int32 {
	if s, ok := t.slots[key]; ok {
		return s
	}
	s := int32(len(t.keys))
	t.slots[key] = s
	t.keys = append(t.keys, key)
	return s
}

// New compiles a plan into an executable Runner delivering results to
// sink. The plan must validate.
func New(p *plan.Plan, sink stream.Sink) (*Runner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, fmt.Errorf("engine: nil sink")
	}
	r := &Runner{fn: p.Fn, sink: sink, keyed: keyTable{slots: make(map[uint64]int32)}}
	byOp := make(map[*plan.Operator]*node)
	ops := p.Operators()
	for _, op := range ops {
		st := agg.NewStore(p.Fn)
		st.SetParam(p.Param)
		n := &node{w: op.W, k: op.W.K(), fn: p.Fn, exposed: op.Exposed, sink: sink,
			shared: &r.keyed, store: st}
		byOp[op] = n
		r.all = append(r.all, n)
	}
	for _, op := range ops {
		n := byOp[op]
		for _, c := range op.Children {
			n.children = append(n.children, byOp[c])
		}
		if op.Parent == nil {
			r.roots = append(r.roots, n)
		}
	}
	return r, nil
}

// batchChunk bounds how many events one pre-pass stages at a time:
// large enough to amortize per-chunk dispatch, small enough that the
// staged slot/value arrays stay L2-resident (and never grow with the
// caller's batch size — a 10M-event one-shot Process costs the same
// fixed scratch as a streaming server's 256-event batches).
const batchChunk = 4096

// Process pushes a batch of in-order events through the plan. Events must
// be globally in non-decreasing time order across calls.
//
// A per-chunk pre-pass resolves every event's key to its canonical slot
// (one hash per event, total — every plan node reuses the resolution
// instead of re-hashing) and stages the values columnar, so the
// per-node hot loops index two flat arrays.
func (r *Runner) Process(events []stream.Event) {
	if r.closed {
		panic("engine: Process after Close")
	}
	r.events += int64(len(events))
	if len(events) > 0 && cap(r.slotBuf) == 0 {
		n := min(len(events), batchChunk)
		r.slotBuf = make([]int32, 0, n)
		r.valBuf = make([]float64, 0, n)
	}
	for off := 0; off < len(events); off += batchChunk {
		end := off + batchChunk
		if end > len(events) {
			end = len(events)
		}
		chunk := events[off:end]
		slots := r.slotBuf[:0]
		vals := r.valBuf[:0]
		for i := range chunk {
			slots = append(slots, r.keyed.slot(chunk[i].Key))
			vals = append(vals, chunk[i].Value)
		}
		r.slotBuf, r.valBuf = slots, vals
		for _, root := range r.roots {
			root.processRaw(chunk, slots, vals)
		}
	}
}

// Advance declares a watermark: no subsequent event will have Time < t.
// Every window instance with end <= t is thereby complete and fires.
// Long-running pipelines use it to flush windows whose keys went quiet —
// the stream alone only completes an instance when a later event passes
// its end, so without a watermark trailing windows wait for Close.
func (r *Runner) Advance(t int64) {
	if r.closed {
		panic("engine: Advance after Close")
	}
	for _, root := range r.roots {
		root.advanceTo(t + 1)
	}
}

// advanceTo fires every instance with end < bound, parents before
// children so the fired sub-aggregates land downstream first.
func (n *node) advanceTo(bound int64) {
	n.advance(bound)
	// The tumbling fast path may cache an instance this advance just
	// fired and released; force the next event to re-resolve it.
	n.curInst = nil
	for _, c := range n.children {
		c.advanceTo(bound)
	}
}

// Close flushes all open window instances and finalizes the run. The
// Runner cannot be reused afterwards.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	// Roots first: their final emissions feed children before those are
	// flushed. flushAll recurses depth-first, and children appear after
	// parents in the recursion, so every node drains completely.
	for _, root := range r.roots {
		root.flushAll()
	}
}

// Events returns the number of raw events processed.
func (r *Runner) Events() int64 { return r.events }

// Stats describes per-operator work counters, used by tests to confirm
// that the rewritten plans really do less work.
type Stats struct {
	W       window.Window
	Inputs  int64 // raw events or sub-aggregates consumed
	Updates int64 // per-instance state updates (the cost model's unit)
	Fired   int64 // window instances emitted
}

// Stats returns per-operator counters in plan order.
func (r *Runner) Stats() []Stats {
	out := make([]Stats, 0, len(r.all))
	for _, n := range r.all {
		out = append(out, Stats{W: n.w, Inputs: n.inputs, Updates: n.updates, Fired: n.fired})
	}
	return out
}

// TotalInputs sums the per-operator input counters (items consumed).
func (r *Runner) TotalInputs() int64 {
	var t int64
	for _, n := range r.all {
		t += n.inputs
	}
	return t
}

// TotalUpdates sums per-instance state updates across operators: the
// engine-measured analogue of the paper's total computation cost C, which
// prices each event (or sub-aggregate) once per window instance it feeds.
func (r *Runner) TotalUpdates() int64 {
	var t int64
	for _, n := range r.all {
		t += n.updates
	}
	return t
}

// Run is a convenience wrapper: compile p, push all events, flush.
func Run(p *plan.Plan, events []stream.Event, sink stream.Sink) (*Runner, error) {
	r, err := New(p, sink)
	if err != nil {
		return nil, err
	}
	r.Process(events)
	r.Close()
	return r, nil
}

// processRaw folds one batch of raw events, pre-resolved to key slots
// and columnar values by the Runner's per-batch pre-pass.
//
// The batch is segmented into runs of consecutive events sharing a time
// bucket t/slide. Every event of a run has the same covering instances
// [lo, hi] (with r = k·s those are exactly m in [t/s − k + 1, t/s],
// clamped at 0), and because instance ends are multiples of the slide no
// instance can complete between two events of a run — so advance, ensure
// and span growth execute once per run, and one AddSlots kernel call per
// instance folds the whole run.
func (n *node) processRaw(events []stream.Event, slots []int32, vals []float64) {
	n.inputs += int64(len(events))
	if n.k == 1 {
		n.processRawTumbling(events, slots, vals)
		return
	}
	slide := n.w.Slide
	for i := 0; i < len(events); {
		hi := events[i].Time / slide
		runEnd := (hi + 1) * slide
		j := i + 1
		for j < len(events) && events[j].Time < runEnd {
			j++
		}
		lo := hi - n.k + 1
		if lo < 0 {
			lo = 0
		}
		n.advance(events[i].Time + 1)
		n.ensure(lo, hi)
		n.updates += (hi - lo + 1) * int64(j-i)
		maxSlot := slots[i]
		for _, s := range slots[i+1 : j] {
			if s > maxSlot {
				maxSlot = s
			}
		}
		for m := lo; m <= hi; m++ {
			inst := n.insts[n.head+int(m-n.base)]
			if maxSlot >= inst.cap {
				n.growInstance(inst, maxSlot+1)
			}
			n.store.AddSlots(inst.span, slots[i:j], vals[i:j])
		}
		i = j
	}
}

// processRawTumbling is the k=1 fast path: every event belongs to
// exactly one instance, which is cached until its end tick passes; the
// run of events landing in that instance folds through one AddSlots
// batch kernel call (the slots and values were already staged by the
// Runner's pre-pass, so the batch form has no per-event staging cost
// left to pay).
func (n *node) processRawTumbling(events []stream.Event, slots []int32, vals []float64) {
	slide := n.w.Slide
	for i := 0; i < len(events); {
		e := &events[i]
		if e.Time >= n.curEnd || n.curInst == nil {
			m := e.Time / slide
			n.advance(e.Time + 1)
			n.ensure(m, m)
			n.curInst = n.insts[n.head+int(m-n.base)]
			n.curEnd = (m + 1) * slide
		}
		inst := n.curInst
		j := i + 1
		for j < len(events) && events[j].Time < n.curEnd {
			j++
		}
		maxSlot := slots[i]
		for _, s := range slots[i+1 : j] {
			if s > maxSlot {
				maxSlot = s
			}
		}
		if maxSlot >= inst.cap {
			n.growInstance(inst, maxSlot+1)
		}
		n.store.AddSlots(inst.span, slots[i:j], vals[i:j])
		i = j
	}
	n.updates += int64(len(events))
}

// growInstance moves the instance's span to one that can hold at least
// need rows. Row addresses into the old span become invalid.
func (n *node) growInstance(inst *instance, need int32) {
	inst.span, inst.cap = n.store.Grow(inst.span, inst.cap, need)
}

// processSubSpan consumes one fired parent instance's sub-aggregates:
// the live rows at srcBase+off in the parent's store src, all covering
// the same interval [start, end). Window placement — advance, covering
// instances, span growth — therefore resolves once for the whole span,
// and one MergeSpan kernel call per covering instance folds every row.
func (n *node) processSubSpan(src *agg.Store, start, end int64, srcBase int32, offs []int32) {
	n.inputs += int64(len(offs))
	maxSlot := offs[len(offs)-1] // AppendLive offsets are increasing
	if n.k == 1 {
		// Tumbling fast path: under "partitioned by" semantics every
		// parent interval falls inside exactly one instance, which stays
		// cached until its end passes (mirroring processRawTumbling).
		slide := n.w.Slide
		if end > n.curEnd || n.curInst == nil {
			m := start / slide
			if end > (m+1)*slide {
				// Straddling interval from a hopping parent: it spans the
				// end of the instance covering its start, so no instance
				// covers it — droppable only for overlap-safe functions
				// (the fast-path twin of the general path's !ok branch).
				// The check must precede ensure: advance(end) fires
				// instance m itself (its end precedes this input's), so
				// ensure(m) would re-open — or, amid later instances,
				// reject — an already-fired index.
				if !agg.OverlapSafe(n.fn) {
					panic(fmt.Sprintf("engine: %v cannot place sub-aggregate [%d,%d) for %v",
						n.w, start, end, n.fn))
				}
				n.advance(end)
				n.curInst = nil // advance may have fired the cached instance
				return
			}
			n.advance(end)
			n.ensure(m, m)
			n.curInst = n.insts[n.head+int(m-n.base)]
			n.curEnd = (m + 1) * slide
		}
		if start < n.curInst.m*slide || end > n.curEnd {
			// Straddler from an older instance's reach (the cache is
			// ahead of it): same dichotomy as above.
			if !agg.OverlapSafe(n.fn) {
				panic(fmt.Sprintf("engine: %v cannot place sub-aggregate [%d,%d) for %v",
					n.w, start, end, n.fn))
			}
			return
		}
		inst := n.curInst
		if maxSlot >= inst.cap {
			n.growInstance(inst, maxSlot+1)
		}
		n.store.MergeSpan(inst.span, src, srcBase, offs)
		n.updates += int64(len(offs))
		return
	}
	n.advance(end)
	lo, hi, ok := n.w.InstancesCovering(start, end)
	if !ok {
		// Under "covered by" semantics a hopping parent emits intervals
		// that straddle this window's instance boundaries; they are not
		// part of any covering set (Definition 2) and the remaining
		// intervals still union to each instance, so dropping them is
		// correct for overlap-safe functions. Under "partitioned by"
		// every parent interval must land in an instance; anything else
		// is plan corruption.
		if !agg.OverlapSafe(n.fn) {
			panic(fmt.Sprintf("engine: %v cannot place sub-aggregate [%d,%d) for %v",
				n.w, start, end, n.fn))
		}
		return
	}
	n.ensure(lo, hi)
	n.updates += (hi - lo + 1) * int64(len(offs))
	bases := n.baseBuf[:0]
	for m := lo; m <= hi; m++ {
		inst := n.insts[n.head+int(m-n.base)]
		if maxSlot >= inst.cap {
			n.growInstance(inst, maxSlot+1)
		}
		bases = append(bases, inst.span)
	}
	n.baseBuf = bases
	for _, b := range bases {
		n.store.MergeSpan(b, src, srcBase, offs)
	}
}

// advance fires every active instance whose interval end is < bound: no
// future input (all with end ≥ bound) can contribute to it.
func (n *node) advance(bound int64) {
	for n.head < len(n.insts) {
		inst := n.insts[n.head]
		end := inst.m*n.w.Slide + n.w.Range
		if end >= bound {
			return
		}
		n.fire(inst, end)
		n.insts[n.head] = nil
		n.head++
		n.base = inst.m + 1
		n.releaseInstance(inst)
	}
	if n.head == len(n.insts) {
		n.insts = n.insts[:0]
		n.head = 0
	}
}

// ensure materializes instances for m in [base, hi], extending the active
// run to include lo..hi. lo is never below base: inputs arrive with
// non-decreasing interval ends and advance() only retires instances whose
// end precedes the current input.
func (n *node) ensure(lo, hi int64) {
	if n.head == len(n.insts) {
		n.insts = n.insts[:0]
		n.head = 0
		n.base = lo
	}
	if lo < n.base {
		panic(fmt.Sprintf("engine: %v out-of-order instance %d < base %d", n.w, lo, n.base))
	}
	for next := n.base + int64(len(n.insts)-n.head); next <= hi; next++ {
		if len(n.insts) == cap(n.insts) && n.head > 0 {
			// Compact the active tail to the front instead of growing:
			// bounds the ring to the window's concurrent-instance count
			// rather than the total instances ever created.
			k := copy(n.insts, n.insts[n.head:])
			for i := k; i < len(n.insts); i++ {
				n.insts[i] = nil
			}
			n.insts = n.insts[:k]
			n.head = 0
		}
		n.insts = append(n.insts, n.newInstance(next))
	}
}

// fire emits one completed instance downstream and to the sink. The
// occupancy bitmap yields the live key slots directly; empty windows
// are not emitted. The whole instance finalizes through one
// agg.FinalizeSpan kernel call (one function dispatch per fire, not per
// row), and the instance reaches the sink as one stream.Run.
func (n *node) fire(inst *instance, end int64) {
	offs := n.store.AppendLive(inst.span, inst.cap, n.liveBuf[:0])
	n.liveBuf = offs
	start := inst.m * n.w.Slide
	if inst.frzCap > 0 {
		n.fireFrozen(inst, start, end, offs)
		return
	}
	if len(offs) == 0 {
		return
	}
	n.fired++
	if n.exposed && start >= n.emitFrom {
		n.emitSpan(inst.span, offs, start, end)
	}
	for _, c := range n.children {
		// offs survives the child call: children only append to their own
		// scratch, never to this node's liveBuf.
		c.processSubSpan(n.store, start, end, inst.span, offs)
	}
	n.capEgressBuffers()
}

// fireFrozen fires an instance migrated across a plan swap. Its frozen
// span holds the canonical pre-migration state; the exposed result is
// the union frozen ⊕ live, but children consume only the live rows —
// every child's own imported state already covers the frozen part, so
// delivering it again would double count (see migrate.go).
func (n *node) fireFrozen(inst *instance, start, end int64, offs []int32) {
	if len(offs) > 0 {
		if need := offs[len(offs)-1] + 1; need > inst.frzCap {
			inst.frz, inst.frzCap = n.store.Grow(inst.frz, inst.frzCap, need)
		}
		n.store.MergeSpan(inst.frz, n.store, inst.span, offs)
	}
	union := n.store.AppendLive(inst.frz, inst.frzCap, n.baseBuf[:0])
	n.baseBuf = union
	if len(union) > 0 {
		n.fired++
		if n.exposed && start >= n.emitFrom {
			n.emitSpan(inst.frz, union, start, end)
		}
	}
	if len(offs) > 0 {
		for _, c := range n.children {
			c.processSubSpan(n.store, start, end, inst.span, offs)
		}
	}
	n.capEgressBuffers()
}

// emitSpan finalizes the span's live rows and hands them to the sink as
// one run: the FinalizeSpan column as is, beside the keys gathered into
// the node's recycled key column. Both are scratch — the run is only
// valid for the call.
func (n *node) emitSpan(base int32, offs []int32, start, end int64) {
	vals := n.store.FinalizeSpan(base, offs, n.finBuf[:0])
	n.finBuf = vals
	keys := n.keyBuf
	if cap(keys) < len(offs) {
		keys = make([]uint64, len(offs))
	} else {
		keys = keys[:len(offs)]
	}
	for i, off := range offs {
		keys[i] = n.shared.keys[off]
	}
	n.keyBuf = keys
	stream.EmitRun(n.sink, stream.Run{W: n.w, Start: start, End: end, Keys: keys, Vals: vals[:len(offs)]})
}

// egressRetain bounds the per-node emission scratch kept across fires,
// in rows. Mirroring reorder's mergeLimit, one high-cardinality burst
// (a hot window instance with far more keys than the steady state) must
// not pin arena-sized buffers on every plan node forever: oversized
// scratch is dropped for the GC and the next fire re-allocates at its
// actual working size.
const egressRetain = 4096

func (n *node) capEgressBuffers() {
	if cap(n.keyBuf) > egressRetain {
		n.keyBuf = nil
	}
	if cap(n.finBuf) > egressRetain {
		n.finBuf = nil
	}
	if cap(n.liveBuf) > egressRetain {
		n.liveBuf = nil
	}
	if cap(n.baseBuf) > egressRetain {
		n.baseBuf = nil
	}
}

// flushAll fires every remaining instance, then flushes children.
func (n *node) flushAll() {
	for n.head < len(n.insts) {
		inst := n.insts[n.head]
		n.fire(inst, inst.m*n.w.Slide+n.w.Range)
		n.insts[n.head] = nil
		n.head++
		n.releaseInstance(inst)
	}
	n.insts = n.insts[:0]
	n.head = 0
	for _, c := range n.children {
		c.flushAll()
	}
}

// newInstance materializes an instance for index m with a store span
// sized to the current key table (spans and instance shells both
// recycle, so steady state allocates nothing).
func (n *node) newInstance(m int64) *instance {
	need := int32(len(n.shared.keys))
	if need < 1 {
		need = 1
	}
	var inst *instance
	if k := len(n.instPool); k > 0 {
		inst = n.instPool[k-1]
		n.instPool = n.instPool[:k-1]
	} else {
		inst = &instance{}
	}
	inst.m = m
	inst.span, inst.cap = n.store.Alloc(need)
	return inst
}

func (n *node) releaseInstance(inst *instance) {
	n.store.Release(inst.span, inst.cap)
	if inst.frzCap > 0 {
		n.store.Release(inst.frz, inst.frzCap)
	}
	inst.span, inst.cap, inst.frz, inst.frzCap = 0, 0, 0, 0
	n.instPool = append(n.instPool, inst)
}
