package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a small scale
// and holds the output to what BENCHMARK.json declares: a benchmark that
// cannot run, or that drifts from its declaration, fails here first.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads end to end")
	}
	const declared = "../BENCHMARK.json"
	bj, err := readBenchmarkJSON(declared)
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()
	for _, w := range bj.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		for trace, defs := range [][]metricDef{bj.EndToEnd, bj.PerLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{
				"-workload", w.Name, "-seed", "7", "-seconds", "0.3", "-trace", []string{"0", "1"}[trace],
				"-cycle-events", "65536", "-verify-events", "65536",
				"-benchmark-json", declared, "-outdir", out,
			}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte{'\n'})
			var raw map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &raw); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.Name, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace=%d: result has keys %v, want correct, attempted, failed, metrics", w.Name, trace, raw)
			}
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q", d.Name)
				case !ok:
					t.Errorf("%s trace=%d: %s not emitted", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", w.Name, trace, d.Name, m.Value)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Error(err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
