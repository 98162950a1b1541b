package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// runSet is the end-to-end values of one -out file, by workload and
// metric, in run order.
type runSet map[string]map[string][]float64

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(runSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Result.Correct || rec.Result.Failed > 0 {
			return nil, fmt.Errorf("%s:%d: %s seed %d is not a clean run (correct=%v failed=%d)",
				path, line, rec.Workload, rec.Seed, rec.Result.Correct, rec.Result.Failed)
		}
		byMetric := set[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			set[rec.Workload] = byMetric
		}
		for name, m := range rec.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the default
// exclusive method), which is what the benchmark contract measures
// spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareFiles prints, per workload and end-to-end metric, each run
// set's median and quartiles and its spread (Q3-Q1 over the median). With
// two files it also applies the metric's bound: "worse" when the second
// median is worse than the first by more than the bound, "unresolved"
// when either spread is wider than the bound, "within" otherwise.
func compareFiles(w io.Writer, bj benchmarkJSON, paths []string) error {
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("-compare takes one or two -out files, got %d", len(paths))
	}
	var sets []runSet
	for _, p := range paths {
		set, err := readRunSet(p)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload\tmetric\tbound")
	for i := range sets {
		fmt.Fprintf(tw, "\tn%[1]d\tq1_%[1]d\tmedian_%[1]d\tq3_%[1]d\tspread_%[1]d", i+1)
	}
	if len(sets) == 2 {
		fmt.Fprint(tw, "\tchange\tverdict")
	}
	fmt.Fprintln(tw)
	worse := 0
	for _, wl := range bj.Workloads {
		for _, m := range bj.EndToEnd {
			var medians, spreads []float64
			row := fmt.Sprintf("%s\t%s\t%.2f", wl.Name, m.Name, m.Bound)
			for i, set := range sets {
				xs := set[wl.Name][m.Name]
				if len(xs) == 0 {
					return fmt.Errorf("%s has no %s runs of %s", paths[i], wl.Name, m.Name)
				}
				q1, q2, q3 := quartiles(xs)
				medians = append(medians, q2)
				spreads = append(spreads, (q3-q1)/q2)
				row += fmt.Sprintf("\t%d\t%.5g\t%.5g\t%.5g\t%.4f", len(xs), q1, q2, q3, (q3-q1)/q2)
			}
			if len(sets) == 2 {
				// change > 0 is "worse", whichever direction is better.
				change := (medians[1] - medians[0]) / medians[0]
				if m.Better == "higher" {
					change = -change
				}
				verdict := "within"
				switch {
				case max(spreads[0], spreads[1]) > m.Bound:
					verdict = "unresolved"
				case change > m.Bound:
					verdict = "worse"
					worse++
				}
				row += fmt.Sprintf("\t%+.4f\t%s", change, verdict)
			}
			fmt.Fprintln(tw, row)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse by more than their bound", worse)
	}
	return nil
}
