package reorder

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"factorwindows/internal/stream"
)

// batchRecorder keeps every consumer call as its own copied batch, so
// the differential test can compare batch boundaries, not just the
// concatenated stream.
type batchRecorder struct {
	batches [][]stream.Event
}

func (r *batchRecorder) Process(events []stream.Event) {
	r.batches = append(r.batches, slices.Clone(events))
}

// diffCase is one seeded stream shape of the differential test.
type diffCase struct {
	name      string
	bound     int64
	policy    Policy
	keys      int64   // key range; small ranges force duplicate (Time, Key) pairs
	perTick   int     // mean events per clock step
	stride    int64   // clock steps advance 1..stride ticks (large: sparse ticks)
	disorder  int64   // in-bound backward displacement, uniform in [0, disorder]
	straggle  float64 // share of events displaced beyond the bound
	ordered   float64 // share of the stream emitted in sorted stretches (fast path)
	maxPush   int     // Push batches are 1..maxPush events
	caps      []capStep
	restoreAt int // event index at which the new buffer round-trips through State (0: never)
}

// capStep applies SetCap(n, policy) to both buffers once at events have
// been pushed.
type capStep struct {
	at     int
	n      int
	policy CapPolicy
}

func (c diffCase) events(rng *rand.Rand, n int) []stream.Event {
	es := make([]stream.Event, n)
	clock := int64(0)
	inOrder := 0 // events left in the current sorted stretch
	for i := range es {
		if rng.Intn(c.perTick) == 0 {
			clock += 1 + rng.Int63n(c.stride)
		}
		if inOrder == 0 && rng.Float64() < c.ordered/200 {
			inOrder = 100 + rng.Intn(200)
		}
		d := rng.Int63n(c.disorder + 1)
		if rng.Float64() < c.straggle {
			d = c.bound + 1 + rng.Int63n(4*c.disorder+4)
		}
		if inOrder > 0 {
			inOrder--
			d = 0
		}
		// Value is the arrival index: distinct, so ties can be told apart
		// and arrival order is checkable.
		es[i] = stream.Event{Time: max(clock-d, 0), Key: uint64(rng.Int63n(c.keys)), Value: float64(i)}
	}
	return es
}

// TestDiffBucketsMatchHeapOracle drives the bucketed buffer and the heap
// buffer it replaced (heap_oracle_test.go) with identical seeded streams
// and identical Push splits. After every Push all counters, the sealed
// horizon and the number of consumer batches must agree; every released
// batch must carry the oracle's exact (Time, Key) sequence (so it is
// sorted wherever the oracle's was, and non-decreasing in time always),
// and within a run of events equal in both the two may differ only in
// order: same values, the new buffer's in arrival order.
func TestDiffBucketsMatchHeapOracle(t *testing.T) {
	cases := []diffCase{
		{name: "shuffle-in-bound", bound: 16, policy: Drop, keys: 4096, perTick: 64, stride: 1, disorder: 12, maxPush: 700},
		{name: "stragglers-drop", bound: 8, policy: Drop, keys: 64, perTick: 16, stride: 2, disorder: 8, straggle: 0.02, maxPush: 300},
		{name: "stragglers-adjust", bound: 8, policy: Adjust, keys: 64, perTick: 16, stride: 2, disorder: 8, straggle: 0.02, maxPush: 300},
		{name: "duplicates", bound: 4, policy: Adjust, keys: 3, perTick: 40, stride: 1, disorder: 4, straggle: 0.01, maxPush: 90},
		{name: "bound-0", bound: 0, policy: Drop, keys: 8, perTick: 5, stride: 3, disorder: 2, maxPush: 50},
		{name: "sorted-stretches", bound: 6, policy: Drop, keys: 32, perTick: 8, stride: 2, disorder: 5, straggle: 0.005, ordered: 0.6, maxPush: 120},
		{name: "sparse-huge-bound", bound: 1 << 20, policy: Drop, keys: 1 << 40, perTick: 1, stride: 5000, disorder: 1 << 19, straggle: 0.001, maxPush: 5000},
		{name: "large-pushes", bound: 3, policy: Adjust, keys: 16, perTick: 30, stride: 1, disorder: 3, straggle: 0.01, maxPush: 9000},
		{name: "cap-release", bound: 1 << 30, policy: Drop, keys: 64, perTick: 4, stride: 3, disorder: 200, maxPush: 200,
			caps: []capStep{{at: 2000, n: 150, policy: ReleaseOldest}, {at: 9000, n: 40, policy: ReleaseOldest}, {at: 15000, n: 0}}},
		{name: "cap-release-adjust", bound: 64, policy: Adjust, keys: 5, perTick: 12, stride: 1, disorder: 60, straggle: 0.01, maxPush: 200,
			caps: []capStep{{at: 1000, n: 100, policy: ReleaseOldest}, {at: 12000, n: 700, policy: ReleaseOldest}}},
		{name: "cap-reject", bound: 32, policy: Drop, keys: 64, perTick: 10, stride: 1, disorder: 30, maxPush: 200,
			caps: []capStep{{at: 3000, n: 120, policy: RejectNewest}, {at: 10000, n: 60, policy: ReleaseOldest}, {at: 14000, n: 90, policy: RejectNewest}}},
		{name: "restore-mid-stream", bound: 16, policy: Adjust, keys: 6, perTick: 50, stride: 1, disorder: 14, straggle: 0.005, maxPush: 400, restoreAt: 7000},
		// Both sides of the radix crossover (radixPerPass): text_egress's
		// dense ticks over 12-bit keys drain by radix, and 62-bit keys need
		// 8 passes, which ticks of about 512 events straddle.
		{name: "dense-ticks", bound: 16, policy: Drop, keys: 4096, perTick: 600, stride: 1, disorder: 12, maxPush: 9000},
		{name: "wide-keys", bound: 16, policy: Adjust, keys: 1 << 62, perTick: 512, stride: 1, disorder: 8, straggle: 0.002, maxPush: 3000},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				diffRun(t, c, seed)
			})
		}
	}
}

func diffRun(t *testing.T, c diffCase, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	events := c.events(rng, 20000)
	oldOut, newOut := &batchRecorder{}, &batchRecorder{}
	oldLate, newLate := 0, 0
	old, err := newHeapBuffer(oldOut, c.bound, c.policy, func(stream.Event) { oldLate++ })
	if err != nil {
		t.Fatal(err)
	}
	onNewLate := func(stream.Event) { newLate++ }
	nb, err := New(newOut, c.bound, c.policy, onNewLate)
	if err != nil {
		t.Fatal(err)
	}
	agree := func(when string) {
		t.Helper()
		got := [...]int64{nb.Late(), nb.Seen(), int64(nb.Buffered()), nb.CapDropped(), nb.CapReleased(), nb.Released(), int64(newLate), int64(len(newOut.batches))}
		want := [...]int64{old.Late(), old.Seen(), int64(old.Buffered()), old.CapDropped(), old.CapReleased(), old.Released(), int64(oldLate), int64(len(oldOut.batches))}
		if got != want {
			t.Fatalf("%s: late/seen/buffered/capDropped/capReleased/released/onLate/batches = %v, oracle %v", when, got, want)
		}
	}
	caps := c.caps
	restored := c.restoreAt == 0
	var capN int
	var capPolicy CapPolicy
	for lo := 0; lo < len(events); {
		for len(caps) > 0 && lo >= caps[0].at {
			capN, capPolicy = caps[0].n, caps[0].policy
			old.SetCap(capN, capPolicy)
			nb.SetCap(capN, capPolicy)
			caps = caps[1:]
			agree(fmt.Sprintf("after SetCap at %d", lo))
		}
		if !restored && lo >= c.restoreAt {
			restored = true
			if nb, err = NewFromState(newOut, nb.Snapshot(), onNewLate); err != nil {
				t.Fatal(err)
			}
			nb.SetCap(capN, capPolicy)
			agree(fmt.Sprintf("after restore at %d", lo))
		}
		hi := min(lo+1+rng.Intn(c.maxPush), len(events))
		old.Push(events[lo:hi])
		nb.Push(events[lo:hi])
		agree(fmt.Sprintf("after Push [%d,%d)", lo, hi))
		lo = hi
	}
	old.Close()
	nb.Close()
	agree("after Close")
	if nb.Buffered() != 0 {
		t.Fatalf("Close left %d events buffered", nb.Buffered())
	}
	// The stream must have exercised what its case is named for.
	if c.straggle > 0 && nb.Late() == 0 {
		t.Fatal("no straggler was judged late")
	}
	if len(c.caps) > 0 && nb.CapDropped()+nb.CapReleased() == 0 {
		t.Fatal("the cap never bit")
	}

	for bi, want := range oldOut.batches {
		got := newOut.batches[bi]
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d events, oracle %d", bi, len(got), len(want))
		}
		for i := 0; i < len(want); {
			if got[i].Time != want[i].Time || got[i].Key != want[i].Key {
				t.Fatalf("batch %d event %d: (%d,%d), oracle (%d,%d)", bi, i,
					got[i].Time, got[i].Key, want[i].Time, want[i].Key)
			}
			j := i + 1
			for j < len(want) && want[j].Time == want[i].Time && want[j].Key == want[i].Key {
				j++
			}
			// One (Time, Key) run: the new buffer's values ascend (arrival
			// order) and are the oracle's values.
			var gv, wv []float64
			for k := i; k < j; k++ {
				if k < j-1 && (got[k+1].Time != got[i].Time || got[k+1].Key != got[i].Key) {
					t.Fatalf("batch %d: (Time, Key) run at %d ends early", bi, i)
				}
				gv, wv = append(gv, got[k].Value), append(wv, want[k].Value)
			}
			if !slices.IsSorted(gv) {
				t.Fatalf("batch %d: ties at (%d,%d) not in arrival order: %v", bi, got[i].Time, got[i].Key, gv)
			}
			slices.Sort(wv)
			if !slices.Equal(gv, wv) {
				t.Fatalf("batch %d: values at (%d,%d) = %v, oracle %v", bi, got[i].Time, got[i].Key, gv, wv)
			}
			i = j
		}
	}
	if err := stream.Validate(slices.Concat(newOut.batches...)); err != nil {
		t.Fatalf("released stream out of order: %v", err)
	}
}
