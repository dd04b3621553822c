package resex

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
)

// benchRecord is the one schema of every BENCH_*.json file: each file is a
// JSON array of these, written and then checked by the benchmark that
// measured them.
//
// Baseline and Current are the two measured sides, in Unit. Value is the
// quantity a limit applies to: Current itself (an allocation count), or a
// ratio of the two sides — a speedup Baseline/Current, or an overhead in
// percent, taken as the median of many paired ratios, so not recomputable
// from the two totals — and the Name's suffix says which. A record carries at most one limit: Value must be at least Floor,
// or at most Ceiling. A record with neither is informational, and Note
// says why its number proves nothing on its own.
type benchRecord struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Baseline float64  `json:"baseline"`
	Current  float64  `json:"current"`
	Value    float64  `json:"value"`
	Floor    *float64 `json:"floor,omitempty"`
	Ceiling  *float64 `json:"ceiling,omitempty"`
	CPUs     int      `json:"cpus"`
	Note     string   `json:"note,omitempty"`
}

// limit is a pointer to v, for Floor and Ceiling literals.
func limit(v float64) *float64 { return &v }

// check applies r's limit. The comparisons are negated so that a NaN value
// fails both kinds of limit instead of passing silently.
func (r benchRecord) check() error {
	switch {
	case r.Floor != nil && r.Ceiling != nil:
		return fmt.Errorf("%s: a record carries a floor or a ceiling, not both", r.Name)
	case r.Floor != nil && !(r.Value >= *r.Floor):
		return fmt.Errorf("%s = %.4g, below its floor %.4g (%s)", r.Name, r.Value, *r.Floor, r.Note)
	case r.Ceiling != nil && !(r.Value <= *r.Ceiling):
		return fmt.Errorf("%s = %.4g, above its ceiling %.4g (%s)", r.Name, r.Value, *r.Ceiling, r.Note)
	}
	return nil
}

// writeBenchRecords stamps the machine's CPU count on recs, writes them to
// file, reports each value as a benchmark metric, and only then checks
// every record's limit: a failing contract fails the benchmark after its
// evidence is on disk.
func writeBenchRecords(b *testing.B, file string, recs []benchRecord) {
	b.Helper()
	for i := range recs {
		recs[i].CPUs = runtime.NumCPU()
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	var errs []error
	for _, r := range recs {
		b.ReportMetric(r.Value, r.Name)
		if err := r.check(); err != nil {
			errs = append(errs, err)
		} else if r.Floor == nil && r.Ceiling == nil {
			b.Logf("%s = %.4g (informational on %d CPUs: %s)", r.Name, r.Value, r.CPUs, r.Note)
		}
	}
	if err := errors.Join(errs...); err != nil {
		b.Fatalf("%s:\n%v", file, err)
	}
}

func TestBenchRecordCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  benchRecord
		fail bool
	}{
		{"floor pass", benchRecord{Value: 2, Floor: limit(1.8)}, false},
		{"floor at limit", benchRecord{Value: 1.8, Floor: limit(1.8)}, false},
		{"floor fail", benchRecord{Value: 1.7, Floor: limit(1.8)}, true},
		{"ceiling pass", benchRecord{Value: 0, Ceiling: limit(0.001)}, false},
		{"ceiling at limit", benchRecord{Value: 2, Ceiling: limit(2)}, false},
		{"ceiling fail", benchRecord{Value: 2.5, Ceiling: limit(2)}, true},
		{"informational", benchRecord{Value: 0.78, Note: "1 CPU"}, false},
		{"both limits", benchRecord{Value: 1, Floor: limit(0), Ceiling: limit(2)}, true},
		{"NaN under floor", benchRecord{Value: math.NaN(), Floor: limit(1.8)}, true},
		{"NaN under ceiling", benchRecord{Value: math.NaN(), Ceiling: limit(2)}, true},
	} {
		if err := tc.rec.check(); (err != nil) != tc.fail {
			t.Errorf("%s: check() = %v, want failure %v", tc.name, err, tc.fail)
		}
	}
}
