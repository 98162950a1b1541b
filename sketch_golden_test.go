package factorwindows

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// goldenCase is one entry of testdata/sketch_golden.json: a window set, a
// seeded stream, the options, and the rows' count and digest.
type goldenCase struct {
	Name    string     `json:"name"`
	Fn      string     `json:"fn"` // "quantile" or "distinct"
	Windows [][2]int64 `json:"windows"`
	Seed    int64      `json:"seed"`
	Ticks   int        `json:"ticks"`
	Keys    int        `json:"keys"`
	PerTick int        `json:"per_tick"`
	Domain  int        `json:"domain"`
	Phi     float64    `json:"phi"`
	Factors bool       `json:"factors"`
	// Batches, when present, are the Process batch sizes, cycled.
	Batches []int `json:"batches"`

	FactorWindows [][2]int64 `json:"factor_windows"`
	Rows          int        `json:"rows"`
	SHA256        string     `json:"sha256"`
}

// goldenEvents is the stream behind a golden case: PerTick events per key
// per tick, values drawn from Domain eighths.
func goldenEvents(c goldenCase) []Event {
	r := rand.New(rand.NewSource(c.Seed))
	events := make([]Event, 0, c.Ticks*c.Keys*c.PerTick)
	for t := 0; t < c.Ticks; t++ {
		for k := 0; k < c.Keys; k++ {
			for i := 0; i < c.PerTick; i++ {
				events = append(events, Event{
					Time: int64(t), Key: uint64(k) * 7919, Value: float64(r.Intn(c.Domain)) / 8,
				})
			}
		}
	}
	return events
}

// rowsDigest is the SHA-256 over the canonically sorted rows, six
// little-endian words each (range, slide, start, end, key, value bits).
func rowsDigest(rows []Result) string {
	SortResults(rows)
	h := sha256.New()
	var buf [48]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.W.Range))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.W.Slide))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.Start))
		binary.LittleEndian.PutUint64(buf[24:], uint64(r.End))
		binary.LittleEndian.PutUint64(buf[32:], r.Key)
		binary.LittleEndian.PutUint64(buf[40:], math.Float64bits(r.Value))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenWindows turns fixture (range, slide) pairs into windows (nil when
// empty, like Optimization.FactorWindows).
func goldenWindows(pairs [][2]int64) []Window {
	var ws []Window
	for _, p := range pairs {
		ws = append(ws, Window{Range: p[0], Slide: p[1]})
	}
	return ws
}

// TestSketchFacadeMatchesPR18Golden replays fixtures written by the
// standalone sketch executor (internal/quantile, internal/distinct over
// internal/sketchrun) at PR 18's commit, the last one that had it. The
// nine quantile digests whose recycled sketches compact were re-recorded
// when a reset KLL sketch began restarting its compaction generator: the
// old bytes were a function of which earlier tenant a recycled sketch
// had, not of its inputs (TestSketchErrorBounds guards accuracy). The
// facades run the one engine; for every case they must pick the same
// factor windows and emit the same rows bit for bit — compaction offsets,
// merge order and HLL registers included — whether the stream arrives in
// one Process call or in uneven batches.
func TestSketchFacadeMatchesPR18Golden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sketch_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Cases []goldenCase `json:"cases"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Cases) < 12 {
		t.Fatalf("fixture holds only %d cases", len(golden.Cases))
	}
	for _, c := range golden.Cases {
		t.Run(c.Name, func(t *testing.T) {
			set, err := NewWindowSet(goldenWindows(c.Windows)...)
			if err != nil {
				t.Fatal(err)
			}
			sink := &CollectingSink{}
			var r *Runner
			fn := Percentile
			switch c.Fn {
			case "quantile":
				r, err = NewQuantileRunner(set, QuantileOptions{Phi: c.Phi, Factors: c.Factors}, sink)
			case "distinct":
				fn = Distinct
				r, err = NewDistinctRunner(set, DistinctOptions{Factors: c.Factors}, sink)
			default:
				t.Fatalf("unknown fn %q", c.Fn)
			}
			if err != nil {
				t.Fatal(err)
			}
			events := goldenEvents(c)
			for i := 0; len(events) > 0; i++ {
				n := len(events)
				if len(c.Batches) > 0 {
					n = min(c.Batches[i%len(c.Batches)], n)
				}
				r.Process(events[:n])
				events = events[n:]
			}
			r.Close()

			o, err := Optimize(set, fn, Options{Factors: c.Factors})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(o.FactorWindows), fmt.Sprint(goldenWindows(c.FactorWindows)); got != want {
				t.Errorf("factor windows %s, fixture has %s", got, want)
			}
			if len(sink.Results) != c.Rows {
				t.Fatalf("%d rows, fixture has %d", len(sink.Results), c.Rows)
			}
			if got := rowsDigest(sink.Results); got != c.SHA256 {
				t.Errorf("rows digest %s, fixture's %s", got, c.SHA256)
			}
		})
	}

	// Mid-stream snapshots the old executor wrote at the same commit
	// (Example 7's set with its factor window, 3 keys, 1500 events in).
	// That codec is gone with the executor; such a blob must come back as
	// an error from Restore — not a panic, not a Runner holding half of it.
	t.Run("sketchrun-snapshot-rejected", func(t *testing.T) {
		set, _ := NewWindowSet(Tumbling(20), Tumbling(30), Tumbling(40))
		restore := map[string]func([]byte) (*Runner, error){
			"sketchrun_pr18_quantile.snap": func(b []byte) (*Runner, error) {
				return RestoreQuantileRunner(set, QuantileOptions{Factors: true}, &CollectingSink{}, b)
			},
			"sketchrun_pr18_distinct.snap": func(b []byte) (*Runner, error) {
				return RestoreDistinctRunner(set, DistinctOptions{Factors: true}, &CollectingSink{}, b)
			},
		}
		for name, fn := range restore {
			blob, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) < 1000 {
				t.Fatalf("%s: fixture is %d bytes; it no longer holds a mid-stream state", name, len(blob))
			}
			r, err := fn(blob)
			if err == nil || r != nil {
				t.Errorf("%s: Restore returned (%v, %v), want (nil, error)", name, r, err)
			}
		}
	})
}
