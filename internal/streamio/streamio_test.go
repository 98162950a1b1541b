package streamio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

var sample = []stream.Event{
	{Time: 0, Key: 1, Value: 3.5},
	{Time: 0, Key: 2, Value: -1},
	{Time: 1, Key: 1, Value: 42},
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sample) {
		t.Fatalf("round trip changed events: %v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sample); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sample) {
		t.Fatalf("round trip changed events: %v", got)
	}
}

func TestReadCSVHeaderAndBlanks(t *testing.T) {
	in := "time,key,value\n\n5,7,1.5\n\n6,7,2\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (stream.Event{Time: 5, Key: 7, Value: 1.5}) {
		t.Fatalf("got %v", got)
	}
}

// The header is the first non-blank line, wherever that falls, and a
// byte order mark in front of it (spreadsheet exports) is not data.
func TestReadCSVHeaderPlacement(t *testing.T) {
	want := []stream.Event{{Time: 5, Key: 7, Value: 1.5}}
	for name, in := range map[string]string{
		"header on line 1":         "time,key,value\n5,7,1.5\n",
		"no header":                "5,7,1.5\n",
		"blank line before header": "\n  \ntime,key,value\n5,7,1.5\n",
		"BOM before header":        "\ufefftime,key,value\n5,7,1.5\n",
		"BOM, CRLF, capitals":      "\ufeffTime,Key,Value\r\n5,7,1.5\r\n",
		"BOM before data":          "\ufeff5,7,1.5\n",
		"BOM line then header":     "\ufeff\ntime,key,value\n5,7,1.5\n",
	} {
		got, err := ReadCSV(strings.NewReader(in))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, %v", name, got, err)
		}
	}
	// Only the first non-blank line can be a header.
	if _, err := ReadCSV(strings.NewReader("5,7,1.5\ntime,key,value\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2: time:") {
		t.Errorf("header after data: err = %v, want a line 2 time error", err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"1,2\n",     // wrong arity
		"x,2,3\n",   // bad time
		"1,y,3\n",   // bad key
		"1,2,z\n",   // bad value
		"1,2,3,4\n", // too many fields
		"-,2,3\n",   // bad time again
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("bad json must fail")
	}
}

func TestReadEventsDispatchAndValidate(t *testing.T) {
	csv := "time,key,value\n1,0,5\n0,0,6\n" // out of order
	if _, err := ReadEvents(strings.NewReader(csv), "csv", true); err == nil {
		t.Fatal("validation must reject out-of-order input")
	}
	if _, err := ReadEvents(strings.NewReader(csv), "csv", false); err != nil {
		t.Fatalf("without validation: %v", err)
	}
	if _, err := ReadEvents(strings.NewReader(""), "xml", false); err == nil {
		t.Fatal("unknown format must fail")
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sample); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf, "jsonl", true)
	if err != nil || len(got) != 3 {
		t.Fatalf("jsonl dispatch: %v, %v", got, err)
	}
}

func TestWriteResults(t *testing.T) {
	rs := []stream.Result{
		{W: window.Tumbling(10), Start: 0, End: 10, Key: 1, Value: 2.5},
		{W: window.Hopping(8, 2), Start: 2, End: 10, Key: 3, Value: -4},
	}
	var csv bytes.Buffer
	if err := WriteResultsCSV(&csv, rs); err != nil {
		t.Fatal(err)
	}
	want := "range,slide,start,end,key,value\n10,10,0,10,1,2.5\n8,2,2,10,3,-4\n"
	if csv.String() != want {
		t.Fatalf("CSV = %q", csv.String())
	}
}
