package asaql

import (
	"math/rand"
	"strings"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/window"
)

const figure1Query = `
SELECT DeviceID, System.Window().Id, Min(T) AS MinTemp
FROM Input TIMESTAMP BY EntryTime
GROUP BY DeviceID, Windows(
    Window('20 min', TumblingWindow(minute, 20)),
    Window('30 min', TumblingWindow(minute, 30)),
    Window('40 min', TumblingWindow(minute, 40)))
`

func TestParseFigure1(t *testing.T) {
	q, err := Parse(figure1Query)
	if err != nil {
		t.Fatal(err)
	}
	if q.KeyColumn != "DeviceID" || q.ValueColumn != "T" || q.Alias != "MinTemp" {
		t.Fatalf("columns wrong: %+v", q)
	}
	if q.Fn != agg.Min {
		t.Fatalf("fn = %v", q.Fn)
	}
	if q.Input != "Input" || q.TimestampBy != "EntryTime" {
		t.Fatalf("from clause wrong: %+v", q)
	}
	if !q.SelectsWindowID {
		t.Fatal("System.Window().Id not recognized")
	}
	if len(q.Windows) != 3 {
		t.Fatalf("windows = %v", q.Windows)
	}
	// minute units → 60-tick multiplier.
	want := []window.Window{window.Tumbling(1200), window.Tumbling(1800), window.Tumbling(2400)}
	for i, nw := range q.Windows {
		if nw.W != want[i] {
			t.Errorf("window %d = %v, want %v", i, nw.W, want[i])
		}
	}
	if q.Windows[0].Name != "20 min" {
		t.Errorf("name = %q", q.Windows[0].Name)
	}
	set, err := q.Set()
	if err != nil || set.Len() != 3 {
		t.Fatalf("Set: %v, %v", set, err)
	}
}

func TestParseHoppingAndUnits(t *testing.T) {
	q, err := Parse(`SELECT k, SUM(v) FROM s GROUP BY k, Windows(
		Window('h', HoppingWindow(tick, 20, 10)),
		TumblingWindow(hour, 2))`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Windows[0].W != window.Hopping(20, 10) {
		t.Fatalf("hopping = %v", q.Windows[0].W)
	}
	if q.Windows[1].W != window.Tumbling(7200) {
		t.Fatalf("hour window = %v", q.Windows[1].W)
	}
	if q.Windows[1].Name != "W(7200,7200)" {
		t.Fatalf("default name = %q", q.Windows[1].Name)
	}
	if q.Fn != agg.Sum {
		t.Fatalf("fn = %v", q.Fn)
	}
}

func TestParseAggregateFirst(t *testing.T) {
	// Order of select items is flexible.
	q, err := Parse(`SELECT MAX(temp) AS m, dev FROM in GROUP BY dev, Windows(TumblingWindow(tick, 5))`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Fn != agg.Max || q.KeyColumn != "dev" {
		t.Fatalf("%+v", q)
	}
}

func TestParseSketchAggregates(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		fn    agg.Fn
		param float64
		col   string
	}{
		{"percentile", `SELECT k, PERCENTILE(v, 0.95) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`,
			agg.Percentile, 0.95, "v"},
		{"percentile default", `SELECT k, PERCENTILE(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`,
			agg.Percentile, 0.5, "v"},
		{"count distinct", `SELECT k, COUNT(DISTINCT v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`,
			agg.Distinct, 0, "v"},
		{"count distinct lowercase", `select k, count(distinct v) from s group by k, windows(tumblingwindow(tick, 4))`,
			agg.Distinct, 0, "v"},
		{"topk", `SELECT k, TOPK(v, 3) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`,
			agg.TopK, 3, "v"},
		{"topk default", `SELECT k, TOPK(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`,
			agg.TopK, 1, "v"},
		// A column literally named "distinct" stays a plain COUNT.
		{"column named distinct", `SELECT k, COUNT(distinct) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`,
			agg.Count, 0, "distinct"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if q.Fn != c.fn || q.Param != c.param || q.ValueColumn != c.col {
				t.Fatalf("fn=%v param=%v col=%q, want fn=%v param=%v col=%q",
					q.Fn, q.Param, q.ValueColumn, c.fn, c.param, c.col)
			}
			// Render round-trip must preserve the call, param included.
			q2, err := Parse(q.String())
			if err != nil {
				t.Fatalf("re-parse failed: %v\n%s", err, q.String())
			}
			if q2.Fn != q.Fn || q2.Param != q.Param || q2.ValueColumn != q.ValueColumn {
				t.Fatalf("round trip changed call:\n%s\nvs\n%s", q, q2)
			}
		})
	}
}

// The same parameterized function may appear once per parameter.
func TestParseSameFunctionTwoParameters(t *testing.T) {
	q, err := Parse(`SELECT k, PERCENTILE(v, 0.5) AS p50, PERCENTILE(v, 0.99) AS p99, TOPK(v, 2) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, q.String())
	}
	for _, got := range []*Query{q, q2} {
		if len(got.Aggregates) != 3 || got.Aggregates[0].Param != 0.5 || got.Aggregates[1].Param != 0.99 ||
			got.Aggregates[1].Fn != agg.Percentile || got.Aggregates[2].Param != 2 || got.Param != 0.5 {
			t.Fatalf("calls %+v", got.Aggregates)
		}
	}
}

func TestParseSketchAggregateErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"phi over one", `SELECT k, PERCENTILE(v, 1.5) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`, "PERCENTILE"},
		{"phi zero", `SELECT k, PERCENTILE(v, 0) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`, "PERCENTILE"},
		{"fractional k", `SELECT k, TOPK(v, 2.5) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`, "TOPK"},
		{"k too large", `SELECT k, TOPK(v, 1000) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`, "TOPK"},
		{"param on min", `SELECT k, MIN(v, 2) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`, "one argument"},
		{"param on count distinct", `SELECT k, COUNT(DISTINCT v, 2) FROM s GROUP BY k, Windows(TumblingWindow(tick, 4))`, "one argument"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"empty", ``, "expected keyword SELECT"},
		{"no agg", `SELECT k FROM s GROUP BY k, Windows(TumblingWindow(tick, 5))`, "no aggregate"},
		{"bad fn", `SELECT k, MODE(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5))`, "unknown aggregate"},
		{"dup aggs", `SELECT k, MIN(v), MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5))`, "duplicate aggregate"},
		{"dup percentile", `SELECT k, PERCENTILE(v), PERCENTILE(v, 0.5) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5))`, "duplicate aggregate"},
		{"agg columns differ", `SELECT k, MIN(v), MAX(w) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5))`, "differ"},
		{"two keys", `SELECT a, b, MIN(v) FROM s GROUP BY a, Windows(TumblingWindow(tick, 5))`, "multiple plain columns"},
		{"key mismatch", `SELECT a, MIN(v) FROM s GROUP BY b, Windows(TumblingWindow(tick, 5))`, "does not match"},
		{"no windows", `SELECT k, MIN(v) FROM s GROUP BY k, Windows()`, "expected"},
		{"bad unit", `SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(fortnight, 5))`, "unknown time unit"},
		{"zero range", `SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 0))`, "invalid positive integer"},
		{"bad window", `SELECT k, MIN(v) FROM s GROUP BY k, Windows(HoppingWindow(tick, 10, 3))`, "not a multiple"},
		{"slide over range", `SELECT k, MIN(v) FROM s GROUP BY k, Windows(HoppingWindow(tick, 5, 10))`, "range 5 < slide 10"},
		{"dup window", `SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5), TumblingWindow(tick, 5))`, "duplicate"},
		{"trailing", `SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5)) extra`, "trailing input"},
		{"unterminated", `SELECT k, MIN(v) FROM s GROUP BY k, Windows(Window('x, TumblingWindow(tick, 5)))`, "unterminated string"},
		{"bad char", `SELECT k; MIN(v)`, "unexpected character"},
		{"bad windowid", `SELECT k, System.Foo().Id, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5))`, "System.Window().Id"},
		{"unknown wtype", `SELECT k, MIN(v) FROM s GROUP BY k, Windows(SessionWindow(tick, 5))`, "unknown window type"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	q, err := Parse(figure1Query)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, q.String())
	}
	if q2.Fn != q.Fn || q2.KeyColumn != q.KeyColumn || len(q2.Windows) != len(q.Windows) {
		t.Fatalf("round trip changed query:\n%s\nvs\n%s", q, q2)
	}
	for i := range q.Windows {
		if q2.Windows[i].W != q.Windows[i].W {
			t.Fatalf("window %d changed: %v vs %v", i, q2.Windows[i].W, q.Windows[i].W)
		}
	}
}

func TestParseWithoutTimestampBy(t *testing.T) {
	q, err := Parse(`SELECT k, COUNT(v) FROM events GROUP BY k, Windows(TumblingWindow(second, 30))`)
	if err != nil {
		t.Fatal(err)
	}
	if q.TimestampBy != "" || q.Input != "events" {
		t.Fatalf("%+v", q)
	}
	if q.Windows[0].W != window.Tumbling(30) {
		t.Fatalf("window = %v", q.Windows[0].W)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	q, err := Parse(`select K, min(V) from S group by K, windows(tumblingwindow(TICK, 7))`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Fn != agg.Min || q.Windows[0].W != window.Tumbling(7) {
		t.Fatalf("%+v", q)
	}
}

func TestParserNeverPanicsOnGarbage(t *testing.T) {
	// Robustness: arbitrary byte soup must produce errors, not panics.
	r := rand.New(rand.NewSource(99))
	alphabet := []byte("SELECT FROM GROUP BY Windows TumblingWindow HoppingWindow tick minute ()',.*0123456789abcXYZ \n\t\"")
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(120)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[r.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on input %q: %v", buf, p)
				}
			}()
			_, _ = Parse(string(buf))
		}()
	}
}

func TestParserMutatedValidQueries(t *testing.T) {
	// Mutate a valid query by deleting random spans; must never panic
	// and must still parse when the mutation is a no-op.
	r := rand.New(rand.NewSource(100))
	base := figure1Query
	for trial := 0; trial < 2000; trial++ {
		lo := r.Intn(len(base))
		hi := lo + r.Intn(len(base)-lo)
		mutated := base[:lo] + base[hi:]
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on mutated input %q: %v", mutated, p)
				}
			}()
			_, _ = Parse(mutated)
		}()
	}
}
