package shardworker

import (
	"bytes"
	"encoding/gob"
	"io"
	"net"
	"os"
	"strings"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/cost"
	"factorwindows/internal/engine"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
	"factorwindows/internal/workload"
)

// The session double: one shard session served over net.Pipe, driven
// frame by frame the way the router drives it. net.Pipe is synchronous,
// which suits the protocol — the router never writes while a reply is
// owed.

var testQueries = []multiquery.Query{
	{ID: "q1", Windows: []window.Window{{Range: 20, Slide: 20}, {Range: 40, Slide: 40}}},
	{ID: "q2", Windows: []window.Window{{Range: 80, Slide: 80}}},
}

// testPlan is the plan a hello built by helloFor makes the worker derive.
func testPlan(t *testing.T, qs []multiquery.Query) *plan.Plan {
	t.Helper()
	mp, err := multiquery.Optimize(qs, agg.Sum, core.Options{Factors: true, Model: cost.Model{Eta: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return mp.Combined
}

func helloFor(qs []multiquery.Query, state []byte) *wire.Ctrl {
	c := &wire.Ctrl{Op: wire.CtrlHello, Shards: 1, Fn: int(agg.Sum), Eta: 1, Factors: true, State: state}
	for _, q := range qs {
		cq := wire.CtrlQuery{ID: q.ID}
		for _, w := range q.Windows {
			cq.Windows = append(cq.Windows, wire.CtrlWindow{Range: w.Range, Slide: w.Slide})
		}
		c.Queries = append(c.Queries, cq)
	}
	return c
}

// peer is the router's end of one session.
type peer struct {
	t    *testing.T
	conn net.Conn
	fr   *wire.Reader
	asm  wire.CtrlAssembler
}

// dial starts a session on a fresh worker and returns the router's end.
func dial(t *testing.T) *peer {
	t.Helper()
	w := New()
	client, server := net.Pipe()
	w.mu.Lock()
	w.conns[server] = struct{}{}
	w.wg.Add(1)
	w.mu.Unlock()
	go w.session(server)
	p := &peer{t: t, conn: client, fr: wire.NewReader(client)}
	t.Cleanup(func() {
		client.Close()
		p.fr.Close()
		w.Close()
	})
	return p
}

func (p *peer) send(c *wire.Ctrl) {
	p.t.Helper()
	if _, err := p.conn.Write(wire.AppendCtrl(nil, 0, c)); err != nil {
		p.t.Fatalf("writing %q: %v", c.Op, err)
	}
}

func (p *peer) sendEvents(events []stream.Event) {
	p.t.Helper()
	for off := 0; off < len(events); off += wire.MaxFrameRows {
		chunk := events[off:min(off+wire.MaxFrameRows, len(events))]
		if _, err := p.conn.Write(wire.AppendEventFrame(nil, chunk)); err != nil {
			p.t.Fatalf("writing events: %v", err)
		}
	}
}

// reply reads result frames up to the next complete control envelope.
func (p *peer) reply() ([]stream.Result, wire.Ctrl) {
	p.t.Helper()
	var rows []stream.Result
	for {
		f, err := p.fr.Next()
		if err != nil {
			p.t.Fatalf("reading reply: %v", err)
		}
		switch f.Kind {
		case wire.KindResults:
			for j := 0; j < f.Rows(); j++ {
				_, rng, slide, start, end, key, value := f.Result(j)
				rows = append(rows, stream.Result{
					W: window.Window{Range: rng, Slide: slide}, Start: start, End: end, Key: key, Value: value,
				})
			}
		case wire.KindControl:
			c, done, err := p.asm.Add(f)
			if err != nil {
				p.t.Fatalf("assembling reply: %v", err)
			}
			if done {
				c.State = append([]byte(nil), c.State...)
				return rows, c
			}
		default:
			p.t.Fatalf("unexpected frame kind %d", f.Kind)
		}
	}
}

// hungUp requires that the worker has ended the session: nothing more
// is served on it.
func (p *peer) hungUp() {
	p.t.Helper()
	if _, err := p.fr.Next(); err == nil {
		p.t.Fatal("session still open after a fatal reply")
	}
}

// stateAfter runs events through a fresh engine over p and returns its
// snapshot and its encoded export at the stream position.
func stateAfter(t *testing.T, p *plan.Plan, events []stream.Event) (snap, export []byte) {
	t.Helper()
	r, err := engine.New(p, &stream.CountingSink{})
	if err != nil {
		t.Fatal(err)
	}
	r.Process(events)
	if snap, err = r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ex, err := r.ExportCanonical(events[len(events)-1].Time + 1)
	if err != nil {
		t.Fatal(err)
	}
	if export, err = engine.EncodeExport(ex); err != nil {
		t.Fatal(err)
	}
	return snap, export
}

// TestHelloStateForms: whatever bytes a hello carries, the session
// either acks with a whole engine behind it or reports a CtrlError and
// hangs up — never a panic, never an engine half built. The worker does
// not know the forms apart (engine.Resume reads the header); bytes of
// no known generation name engine.ErrSnapshotVersion in the error text,
// so the router's poison message says what was wrong.
func TestHelloStateForms(t *testing.T) {
	events := workload.OrderSensitive(workload.StreamConfig{Events: 500, Keys: 5, EventsPerTick: 3, Seed: 1})
	snap, export := stateAfter(t, testPlan(t, testQueries), events)
	otherQueries := []multiquery.Query{{ID: "q1", Windows: []window.Window{{Range: 10, Slide: 10}, {Range: 30, Slide: 30}}}}
	otherSnap, _ := stateAfter(t, testPlan(t, otherQueries), events)
	foreign, err := os.ReadFile("../engine/testdata/snapshot_v1_factored_sum.bin")
	if err != nil {
		t.Fatal(err)
	}
	var bareExport bytes.Buffer // an export as encoded before exports had a header
	if err := gob.NewEncoder(&bareExport).Encode(&engine.Export{Fn: agg.Sum, Horizon: 3}); err != nil {
		t.Fatal(err)
	}
	version := engine.ErrSnapshotVersion.Error()

	for _, tc := range []struct {
		name    string
		state   []byte
		wantErr string // "" = ack; else a substring of the CtrlError text
	}{
		{"no state", nil, ""},
		{"snapshot", snap, ""},
		{"export", export, ""},
		{"snapshot of another plan", otherSnap, "different plan"},
		{"boxed-era snapshot", foreign, version},
		{"header-less export", bareExport.Bytes(), version},
		{"garbage", []byte("not a state blob at all"), version},
		{"truncated snapshot", snap[:len(snap)/2], "decoding snapshot"},
		{"truncated export", export[:len(export)/2], "decoding export"},
		{"snapshot header over garbage", append([]byte("FWSNAP2\n"), "junk"...), "decoding snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := dial(t)
			p.send(helloFor(testQueries, tc.state))
			rows, c := p.reply()
			if len(rows) != 0 {
				t.Fatalf("hello answered with %d result rows", len(rows))
			}
			if tc.wantErr == "" {
				if c.Op != wire.CtrlAck {
					t.Fatalf("hello answered %q (%s), want an ack", c.Op, c.Error)
				}
				// The engine is whole: it takes events and flushes.
				p.sendEvents([]stream.Event{{Time: 1 << 20, Key: 1, Value: 1}})
				p.send(&wire.Ctrl{Op: wire.CtrlBarrier})
				if _, c := p.reply(); c.Op != wire.CtrlAck || c.Events == 0 {
					t.Fatalf("barrier after hello answered %+v", c)
				}
				return
			}
			if c.Op != wire.CtrlError || !strings.Contains(c.Error, tc.wantErr) {
				t.Fatalf("hello answered %q %q, want an error naming %q", c.Op, c.Error, tc.wantErr)
			}
			p.hungUp()
		})
	}
}

// TestProtocolViolationsHangUp: frames that need the engine only a hello
// builds are refused before it exists, and a second hello is refused
// after — each with a CtrlError, then the session ends.
func TestProtocolViolationsHangUp(t *testing.T) {
	for _, op := range []string{wire.CtrlAdvance, wire.CtrlBarrier, wire.CtrlExport, wire.CtrlSnapshot} {
		p := dial(t)
		p.send(&wire.Ctrl{Op: op})
		if _, c := p.reply(); c.Op != wire.CtrlError || !strings.Contains(c.Error, "before hello") {
			t.Fatalf("%s before hello answered %+v", op, c)
		}
		p.hungUp()
	}
	p := dial(t)
	p.sendEvents([]stream.Event{{Time: 1, Key: 1, Value: 1}})
	if _, c := p.reply(); c.Op != wire.CtrlError {
		t.Fatalf("events before hello answered %+v", c)
	}
	p.hungUp()

	p = dial(t)
	p.send(helloFor(testQueries, nil))
	p.reply()
	p.send(helloFor(testQueries, nil))
	if _, c := p.reply(); c.Op != wire.CtrlError || !strings.Contains(c.Error, "duplicate hello") {
		t.Fatalf("second hello answered %+v", c)
	}
	p.hungUp()
}

// TestHelloSnapshotResumesLikeLocalRestore: a session opened with a
// snapshot, fed the rest of the stream and barriered returns exactly the
// rows — and the counters — a local engine.Restore of the same blob
// produces, and hands back the same snapshot when asked; so does its
// close flush. The stream has enough keys that the blob spans several
// control frames (the assembler path every large shard takes).
func TestHelloSnapshotResumesLikeLocalRestore(t *testing.T) {
	events := workload.OrderSensitive(workload.StreamConfig{Events: 80000, Keys: 20000, EventsPerTick: 1000, Seed: 2})
	cut := len(events)/2 + 17
	pl := testPlan(t, testQueries)
	snap, _ := stateAfter(t, pl, events[:cut])
	if len(snap) <= 256<<10 {
		t.Fatalf("snapshot of %d bytes fits one control frame; the chunked path is not exercised", len(snap))
	}

	local := &stream.CollectingSink{}
	ref, err := engine.Restore(pl, local, snap)
	if err != nil {
		t.Fatal(err)
	}
	rest := events[cut:]
	horizon := rest[len(rest)-1].Time
	ref.Process(rest)
	ref.Advance(horizon)

	p := dial(t)
	p.send(helloFor(testQueries, snap))
	if _, c := p.reply(); c.Op != wire.CtrlAck {
		t.Fatalf("hello answered %q (%s)", c.Op, c.Error)
	}
	p.sendEvents(rest)
	p.send(&wire.Ctrl{Op: wire.CtrlAdvance, Horizon: horizon})
	p.send(&wire.Ctrl{Op: wire.CtrlBarrier})
	rows, ack := p.reply()
	sameRows(t, "barrier", rows, local.Results)
	if ack.Op != wire.CtrlAck || ack.Updates != ref.TotalUpdates() || ack.Events != ref.Events() {
		t.Fatalf("barrier ack %+v, local engine has %d updates over %d events", ack, ref.TotalUpdates(), ref.Events())
	}

	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p.send(&wire.Ctrl{Op: wire.CtrlSnapshot})
	if _, c := p.reply(); c.Op != wire.CtrlSnapshot || !bytes.Equal(c.State, want) {
		t.Fatalf("snapshot reply %q carries %d bytes, local snapshot is %d", c.Op, len(c.State), len(want))
	}

	flushed := len(local.Results)
	ref.Close()
	p.send(&wire.Ctrl{Op: wire.CtrlClose})
	rows, bye := p.reply()
	sameRows(t, "close", rows, local.Results[flushed:])
	if bye.Op != wire.CtrlBye || bye.Updates != ref.TotalUpdates() {
		t.Fatalf("close answered %+v, local engine has %d updates", bye, ref.TotalUpdates())
	}
	if _, err := p.fr.Next(); err != io.EOF {
		t.Fatalf("after bye: %v, want EOF", err)
	}
}

func sameRows(t *testing.T, label string, got, want []stream.Result) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%s: %d rows, want %d (and more than none)", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}
