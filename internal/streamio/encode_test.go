package streamio

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendIntMatchesStrconv pins the digit writer to strconv on every
// digit-count boundary (powers of ten and of two, ±1), the extremes, and
// a random sample, appended after existing bytes and into a dst without
// spare capacity.
func TestAppendIntMatchesStrconv(t *testing.T) {
	vals := []uint64{0, 1, 9, 10, 11, 99, 100, 101, math.MaxInt64, 1 << 63, 1<<63 + 1, math.MaxUint64, math.MaxUint64 - 1}
	for p := uint64(10); ; p *= 10 {
		vals = append(vals, p-1, p, p+1)
		if p > math.MaxUint64/10 {
			break
		}
	}
	for s := 1; s < 64; s++ {
		vals = append(vals, 1<<s-1, 1<<s, 1<<s+1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vals = append(vals, rng.Uint64()>>rng.Intn(64))
	}
	for _, v := range vals {
		if got, want := string(AppendUint([]byte("x"), v)), "x"+strconv.FormatUint(v, 10); got != want {
			t.Fatalf("AppendUint(%d) = %q, want %q", v, got, want)
		}
		if got, want := string(AppendUint(nil, v)), strconv.FormatUint(v, 10); got != want {
			t.Fatalf("AppendUint(nil, %d) = %q, want %q", v, got, want)
		}
		for _, iv := range []int64{int64(v), -int64(v)} {
			if got, want := string(AppendInt([]byte("x"), iv)), "x"+strconv.FormatInt(iv, 10); got != want {
				t.Fatalf("AppendInt(%d) = %q, want %q", iv, got, want)
			}
		}
	}
}

// FuzzAppendInt pins the digit writer to strconv on whatever the unit
// test's boundary list missed.
func FuzzAppendInt(f *testing.F) {
	f.Add(int64(0), uint64(0))
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64))
	f.Add(int64(-1000), uint64(9999999999))
	f.Fuzz(func(t *testing.T, iv int64, uv uint64) {
		if got, want := string(AppendInt([]byte("k"), iv)), "k"+strconv.FormatInt(iv, 10); got != want {
			t.Fatalf("AppendInt(%d) = %q, want %q", iv, got, want)
		}
		if got, want := string(AppendUint(nil, uv)), strconv.FormatUint(uv, 10); got != want {
			t.Fatalf("AppendUint(%d) = %q, want %q", uv, got, want)
		}
	})
}

// TestResultEncoderMatchesPerRow: rendering a window instance's span
// once per run of rows (AppendWindowFields, then AppendKeyValue per row,
// as the server's stream encoder does) gives exactly what the stateless
// per-row AppendResultFields does, whether a row repeats the previous
// row's window fields (each of the four alone differing, none, all) or
// not.
func TestResultEncoderMatchesPerRow(t *testing.T) {
	type row struct {
		rng, slide, start, end int64
		key                    uint64
		value                  float64
	}
	rows := []row{
		{0, 0, 0, 0, 0, 0}, // all-zero window fields: the first run must still render them
		{0, 0, 0, 0, 1, 1.5},
		{8, 4, 16, 24, 7, 3},
		{8, 4, 16, 24, 9, math.NaN()},
		{9, 4, 16, 24, 9, -0.25},
		{9, 5, 16, 24, 9, 1e21},
		{9, 5, 17, 24, 9, 5e-324},
		{9, 5, 17, 25, 9, math.Inf(-1)},
		{9, 5, 17, 25, math.MaxUint64, math.Copysign(0, -1)},
		{math.MinInt64, math.MinInt64, math.MinInt64, math.MinInt64, 0, 1 << 53},
		{math.MinInt64, math.MinInt64, math.MinInt64, math.MinInt64, 1, 1<<53 - 1},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64, 2, -(1<<53 - 1)},
		{8, 4, 16, 24, 7, 3},
	}
	var got, want, span []byte
	for i, r := range rows {
		if i == 0 || rows[i-1].rng != r.rng || rows[i-1].slide != r.slide || rows[i-1].start != r.start || rows[i-1].end != r.end {
			span = AppendWindowFields(span[:0], r.rng, r.slide, r.start, r.end)
		}
		got = append(AppendKeyValue(append(got, span...), r.key, r.value), '\n')
		want = append(AppendResultFields(want, r.rng, r.slide, r.start, r.end, r.key, r.value), '\n')
	}
	if string(got) != string(want) {
		t.Fatalf("once per run:\n%s\nper row:\n%s", got, want)
	}
}
