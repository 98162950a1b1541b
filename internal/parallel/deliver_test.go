package parallel

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"factorwindows/internal/engine"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// heldShard is a Shard double holding one prepared buffer for the next
// barrier; its AwaitBarrier first waits on gate, when set.
type heldShard struct {
	buf  stream.RunBuffer
	gate chan struct{}
}

func (h *heldShard) Send(p Part)                   { p.Done() }
func (h *heldShard) Watermark(int64)               {}
func (h *heldShard) StartBarrier()                 {}
func (h *heldShard) StartClose()                   {}
func (h *heldShard) Updates() int64                { return 0 }
func (h *heldShard) Err() error                    { return nil }
func (h *heldShard) AwaitClose() *stream.RunBuffer { return &h.buf }
func (h *heldShard) State() (engine.ShardState, error) {
	return engine.ShardState{}, fmt.Errorf("held shard has no state")
}

func (h *heldShard) AwaitBarrier() *stream.RunBuffer {
	if h.gate != nil {
		<-h.gate
	}
	return &h.buf
}

// deliveryLog is a DeliverySink recording each run's first key and each
// end of delivery ("|"), calling onDelivered after the latter, and
// panicking on the run numbered panicAt (1-based; 0 never).
type deliveryLog struct {
	log         []string
	runs        int
	panicAt     int
	onDelivered func(n int)
	delivered   int
}

func (d *deliveryLog) Emit(r stream.Result) {
	d.EmitRun(stream.Run{W: r.W, Start: r.Start, End: r.End, Keys: []uint64{r.Key}, Vals: []float64{r.Value}})
}

func (d *deliveryLog) EmitRun(r stream.Run) {
	if d.runs++; d.runs == d.panicAt {
		panic("sink exploded")
	}
	d.log = append(d.log, fmt.Sprint(r.Keys[0]))
}

func (d *deliveryLog) Delivered() {
	d.log = append(d.log, "|")
	d.delivered++
	if d.onDelivered != nil {
		d.onDelivered(d.delivered)
	}
}

// heldShards builds n shards whose buffers hold one run keyed by the
// shard's index; every shard but the first waits on its own gate.
func heldShards(n int) ([]Shard, []*heldShard) {
	shards, held := make([]Shard, n), make([]*heldShard, n)
	for i := range held {
		held[i] = &heldShard{}
		if i > 0 {
			held[i].gate = make(chan struct{})
		}
		held[i].buf.Append(stream.Run{W: window.Tumbling(4), End: 4, Keys: []uint64{uint64(i)}, Vals: []float64{1}})
		shards[i] = held[i]
	}
	return shards, held
}

// TestBarrierDeliversEachShardAsAwaited pins the per-shard drain: a
// Barrier hands shard i's buffer to the sink, and ends that delivery,
// before it awaits shard i+1 — here shard i+1 cannot finish until the
// sink has seen shard i's delivery end, so a drain after the last await
// would deadlock. The sink still sees shard index order.
func TestBarrierDeliversEachShardAsAwaited(t *testing.T) {
	shards, held := heldShards(3)
	sink := &deliveryLog{}
	sink.onDelivered = func(n int) {
		if n < len(held) {
			close(held[n].gate)
		}
	}
	r := Drive(shards, sink, 0)
	done := make(chan struct{})
	go func() { r.Barrier(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Barrier awaited a later shard before delivering an earlier one")
	}
	if want := []string{"0", "|", "1", "|", "2", "|"}; !slices.Equal(sink.log, want) {
		t.Fatalf("sink saw %v, want %v", sink.log, want)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkPanicDropsRestOfDelivery: a sink that panics on shard 0's
// buffer poisons the Runner; the delivery still ends (readers of the
// rows it took are woken), the later shards are still awaited — the
// barrier completes — and their buffers are dropped, not delivered.
func TestSinkPanicDropsRestOfDelivery(t *testing.T) {
	shards, held := heldShards(3)
	for _, h := range held[1:] {
		close(h.gate)
	}
	sink := &deliveryLog{panicAt: 1}
	r := Drive(shards, sink, 0)
	r.Barrier()
	if r.Err() == nil {
		t.Fatal("a sink panic must surface via Err")
	}
	if want := []string{"|"}; !slices.Equal(sink.log, want) {
		t.Fatalf("sink saw %v, want %v", sink.log, want)
	}
	for i, h := range held {
		if h.buf.Rows() != 0 {
			t.Errorf("shard %d still buffers %d rows after the poisoned barrier", i, h.buf.Rows())
		}
	}
}
