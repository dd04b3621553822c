package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// failAfter accepts n writes, then fails every one after.
type failAfter struct{ n int }

var errWrite = errors.New("write failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errWrite
	}
	f.n--
	return len(p), nil
}

func TestTableWritersReturnWriteErrors(t *testing.T) {
	r := &AblArbResult{Rows: []AblArbRow{
		{Discipline: "rr", Mean: 250.5, P99: 310},
		{Discipline: "fifo", Mean: 900.25, P99: 2400},
	}}
	// One header write plus one per row: failing at any of them must
	// surface, in both formats.
	for ok := 0; ok <= len(r.Rows); ok++ {
		if err := r.WriteCSV(&failAfter{n: ok}); !errors.Is(err, errWrite) {
			t.Errorf("WriteCSV failing after %d writes: err = %v, want %v", ok, err, errWrite)
		}
		if err := r.WriteText(&failAfter{n: ok}); !errors.Is(err, errWrite) {
			t.Errorf("WriteText failing after %d writes: err = %v, want %v", ok, err, errWrite)
		}
	}
	if err := r.WriteCSV(&failAfter{n: len(r.Rows) + 1}); err != nil {
		t.Errorf("WriteCSV with every write accepted: %v", err)
	}
}

func TestHeaderVerb(t *testing.T) {
	for verb, want := range map[string]string{
		"%-14s":   "%-14s",
		"%10.1f":  "%10s",
		"%-10.1f": "%-10s",
		"%10v":    "%10s",
		"%17s":    "%17s",
		"%-6d":    "%-6s",
	} {
		if got := headerVerb(verb); got != want {
			t.Errorf("headerVerb(%q) = %q, want %q", verb, got, want)
		}
	}
}

type tableProbeRow struct {
	Name  string  `col:"name,%-6s,name"`
	Note  string  // untagged: not a column
	Value float64 `col:"value(µs),%10.2f,value_us"`
	Ok    bool    `col:"ok,%4v,ok"`
}

func TestTableColumnsFromTags(t *testing.T) {
	tab := tableOf[tableProbeRow]()
	if want := []int{0, 2, 3}; fmt.Sprint(tab.fields) != fmt.Sprint(want) {
		t.Errorf("columns at fields %v, want %v (untagged Note is not a column)", tab.fields, want)
	}
	rows := []tableProbeRow{{"a", "skip me", 1.5, true}, {"bb", "and me", 1e7, false}}

	var text strings.Builder
	if err := writeTable(&text, "T", rows); err != nil {
		t.Fatal(err)
	}
	// The same table as a hand-written writer would print it.
	want := fmt.Sprintf("T\n\n%-6s %10s %4s\n", "name", "value(µs)", "ok") +
		fmt.Sprintf("%-6s %10.2f %4v\n", "a", 1.5, true) +
		fmt.Sprintf("%-6s %10.2f %4v\n", "bb", 1e7, false)
	if text.String() != want {
		t.Errorf("text:\n%q\nwant\n%q", text.String(), want)
	}

	var csv strings.Builder
	if err := writeCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if want := "name,value_us,ok\na,1.5,true\nbb,1e+07,false\n"; csv.String() != want {
		t.Errorf("csv:\n%q\nwant\n%q", csv.String(), want)
	}
}
