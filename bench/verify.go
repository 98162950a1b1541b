package main

import (
	"cmp"
	"fmt"
	"slices"

	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// verify is the correctness gate: a prefix of the cycle goes through a
// fresh server of the workload's configuration, rows decoded off the
// real result streams, and through the naive reference — the original
// plan (one independent operator per window) on one engine, one thread.
// Values are integers, so the two row sets must be equal bit for bit.
func verify(s spec, in *inputs, n int, scratch string) error {
	in.rewind()
	d, err := deploy(s, scratch, true)
	if err != nil {
		return err
	}
	defer d.close()
	prefix := in.events[:n]
	maxTime := int64(0)
	for off := 0; off < n; off += batchEvents {
		batch := prefix[off:min(off+batchEvents, n)]
		for i := range batch {
			maxTime = max(maxTime, batch[i].Time)
		}
		if _, _, err := d.ingest(in.encode(batch)); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	if err := d.health(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	var got []stream.Result
	for _, r := range d.readers {
		got = append(got, r.got...)
	}

	set, err := window.NewSet(s.windows()...)
	if err != nil {
		return err
	}
	orig, err := plan.NewOriginal(set, s.fn)
	if err != nil {
		return err
	}
	ordered := slices.Clone(prefix)
	sortByTime(ordered)
	var ref stream.CollectingSink
	if _, err := engine.Run(orig, ordered, &ref); err != nil {
		return err
	}
	// The server has fired exactly the instances that end at or before
	// its release horizon; the reference's Close also flushes the partial
	// ones after it.
	horizon := maxTime - s.reorderBound
	want := ref.Results[:0]
	for _, r := range ref.Results {
		if r.End <= horizon {
			want = append(want, r)
		}
	}

	sortResults(got)
	sortResults(want)
	if len(got) != len(want) {
		return fmt.Errorf("verify: server streamed %d rows for %d events, reference has %d", len(got), n, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("verify: row %d: server %v, reference %v", i, got[i], want[i])
		}
	}
	if len(got) == 0 {
		return fmt.Errorf("verify: no rows to compare after %d events", n)
	}
	return nil
}

// sortResults is stream.SortResults' order on the generic sort, which
// matters at the million rows text_egress compares per run.
func sortResults(rs []stream.Result) {
	slices.SortFunc(rs, func(a, b stream.Result) int {
		return cmp.Or(
			cmp.Compare(a.W.Range, b.W.Range),
			cmp.Compare(a.W.Slide, b.W.Slide),
			cmp.Compare(a.Start, b.Start),
			cmp.Compare(a.Key, b.Key),
		)
	})
}
