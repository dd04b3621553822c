package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"resex/internal/stats"
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

// countWrites accepts every write and counts them.
type countWrites struct{ n int }

func (c *countWrites) Write(p []byte) (int, error) {
	c.n++
	return len(p), nil
}

func TestTableWritersReturnWriteErrors(t *testing.T) {
	hist := stats.NewHistogram(0, 100, 4)
	hist.Add(10)
	series := func(ys ...float64) *stats.Series {
		s := stats.NewSeries("s")
		for i, y := range ys {
			s.Add(float64(i), y)
		}
		return s
	}
	timeline := &TimelineResult{
		PolicyName: "IOShares", Figure: 7, BaseMean: 100, IntfMean: 300, PolicyMean: 150,
		Latency: series(120, 180), IntfCap: series(100, 40),
		RepResos: series(9e5, 8e5), IntfResos: series(9e5, 1e5), RepCap: series(100, 100),
	}
	// One small literal per result type: a row-table result and every
	// hand-written writer.
	results := []Result{
		&AblArbResult{Rows: []AblArbRow{
			{Discipline: "rr", Mean: 250.5, P99: 310},
			{Discipline: "fifo", Mean: 900.25, P99: 2400},
		}},
		&Fig1Result{Normal: hist, Interfered: hist, NormalMean: 90, InterferedMean: 400},
		&Fig2Result{Rows: []Fig2Row{{Servers: 1, CTime: 90}, {Servers: 1, Loaded: true, CTime: 90, WTime: 300}}},
		&Fig3Result{Rows: []Fig3Row{{BufferRatio: 32, IntfBuffer: 2 << 20, Cap: 3, CTime: 90}}},
		&Fig4Result{Rows: []Fig4Row{{Cap: 50, CTime: 90}, {Cap: 0, CTime: 90}}},
		timeline,
		&Fig6Result{Timeline: timeline, IntfMinFraction: 0.1, IntfCapEngaged: true, RepMinFraction: 0.8, Allocation: 1e6},
		&Fig9Result{Rows: []Fig9Row{{Buffer: 64 << 10, Base: 100, FreeMarket: 300, IOShares: 150}}},
		&AblEventsResult{Rows: []AblEventsRow{{Mode: "polling", Mean: 100}, {Mode: "events", Cap: 25, Mean: 150}}},
		&SoftRTResult{DeadlineUs: 100, Rows: []SoftRTRow{{Config: "alone", MeanUs: 40}}},
		&AblRestartResult{SnapshotAtNs: 5e6, Identical: true,
			Restart: []AblRestartRow{{Config: "restart", LatP99: 200}},
			Flip:    []AblRestartRow{{Config: "flip", LatP99: 300}}},
		&AblGeoDiurnalResult{Zones: 2, PeriodMs: 10, Cells: []AblGeoDiurnalRow{
			{Zones: 2, Shards: 1, Received: 10, PerZone: []GeoZoneRow{{Slot: 0, Received: 5}, {Slot: 1, Received: 5}}},
		}},
	}
	writers := map[string]func(Result, io.Writer) error{"WriteText": Result.WriteText, "WriteCSV": Result.WriteCSV}
	for _, r := range results {
		for name, write := range writers {
			var all countWrites
			if err := write(r, &all); err != nil {
				t.Errorf("%T.%s with every write accepted: %v", r, name, err)
			}
			// Failing at any one of the writes must surface.
			for ok := 0; ok < all.n; ok++ {
				if err := write(r, &failAfter{n: ok}); !errors.Is(err, errWrite) {
					t.Errorf("%T.%s failing after %d of %d writes: err = %v, want %v", r, name, ok, all.n, err, errWrite)
				}
			}
		}
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
