package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// TestAfterCursorBounds pins what ?after= may ask of /results and
// /stream over a ring holding rows 0 and 1: a cursor below -1 is a bad
// request, and a cursor at or past the newest row — up to MaxInt64 —
// reads nothing and misses nothing, rather than inventing evicted rows
// or wrapping round to the whole ring.
func TestAfterCursorBounds(t *testing.T) {
	s := New(Config{ResultBuffer: 8})
	defer s.Close()
	rg := newRing(8)
	for k := range uint64(2) {
		rg.append(stream.Result{W: window.Tumbling(4), Start: 0, End: 4, Key: k, Value: 1})
	}
	rg.closeRing() // /stream drains what is buffered, then returns
	s.queries["q"] = &registration{id: "q", ring: rg}
	h := s.Handler()

	for _, c := range []struct {
		after  string
		status int
		seqs   []int64 // rows delivered
		next   int64   // /results "next"
		errMsg string
	}{
		{after: "", status: 200, seqs: []int64{0, 1}, next: 1},
		{after: "-1", status: 200, seqs: []int64{0, 1}, next: 1},
		{after: "0", status: 200, seqs: []int64{1}, next: 1},
		{after: "1", status: 200, next: 1},
		{after: "5", status: 200, next: 5},
		{after: fmt.Sprint(int64(math.MaxInt64)), status: 200, next: math.MaxInt64},
		{after: "-2", status: 400, errMsg: "server: bad after cursor: -2 is below -1"},
		{after: "-5", status: 400, errMsg: "server: bad after cursor: -5 is below -1"},
		{after: fmt.Sprint(int64(math.MinInt64)), status: 400, errMsg: "server: bad after cursor: -9223372036854775808 is below -1"},
		{after: "x", status: 400, errMsg: `server: bad after cursor: strconv.ParseInt: parsing "x": invalid syntax`},
	} {
		query := ""
		if c.after != "" {
			query = "?after=" + c.after
		}
		for _, path := range []string{"/queries/q/results", "/queries/q/stream"} {
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest("GET", path+query, nil))
			if rw.Code != c.status {
				t.Fatalf("%s%s: status %d, want %d: %s", path, query, rw.Code, c.status, rw.Body)
			}
			if c.status != http.StatusOK {
				var e struct{ Error string }
				if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil || e.Error != c.errMsg {
					t.Fatalf("%s%s: error %q (%v), want %q", path, query, e.Error, err, c.errMsg)
				}
				continue
			}
			var rows []ResultRow
			if strings.HasSuffix(path, "/results") {
				var body struct {
					Missed, Next int64
					Results      []ResultRow
				}
				if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
					t.Fatalf("%s%s: %v: %s", path, query, err, rw.Body)
				}
				if body.Missed != 0 || body.Next != c.next {
					t.Fatalf("%s%s: missed %d next %d, want missed 0 next %d", path, query, body.Missed, body.Next, c.next)
				}
				rows = body.Results
			} else {
				for sc := bufio.NewScanner(rw.Body); sc.Scan(); {
					var r ResultRow
					if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
						t.Fatalf("%s%s: %v: %s", path, query, err, sc.Bytes())
					}
					rows = append(rows, r)
				}
			}
			var seqs []int64
			for _, r := range rows {
				seqs = append(seqs, r.Seq)
			}
			if fmt.Sprint(seqs) != fmt.Sprint(c.seqs) {
				t.Fatalf("%s%s: rows %v, want %v", path, query, seqs, c.seqs)
			}
		}
	}
}
