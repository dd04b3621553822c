package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{250, 95, 12}, // the daemon's step count: p95 has 12 beyond it
		{250, 99, 2},  // and p99 only 2, so p99 is not reported
		{240, 95, 12},
		{100, 50, 50},
		{1, 50, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{60, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {250, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(xs, 95); got != 10 {
		t.Errorf("p95 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

// opsOf lists the digest keys a workload's pass records.
func opsOf(w workload) []string {
	if d, ok := w.(drivers); ok {
		return append([]string(nil), d.ids...)
	}
	return []string{"session"}
}

func TestGoldenCoversEveryWorkloadAtSeedsZeroAndSeven(t *testing.T) {
	for name, w := range workloads {
		for _, seed := range []int64{0, 7} {
			g, err := goldenFor(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := opsOf(w)
			got := sortedKeys(g)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("golden.json %s seed %d has ops %v, want %v", name, seed, got, want)
			}
		}
	}
}

func TestCheckNamesBothDigests(t *testing.T) {
	r := newRun("paper", 0, map[string]string{"fig1": "00000000000000aa"})
	if err := r.check("fig1", 0xaa); err != nil {
		t.Fatalf("matching digest: %v", err)
	}
	err := newRun("paper", 0, map[string]string{"fig1": "00000000000000aa"}).check("fig1", 0xbb)
	if err == nil || !strings.Contains(err.Error(), "00000000000000bb") || !strings.Contains(err.Error(), "00000000000000aa") {
		t.Errorf("golden mismatch error %v does not name both digests", err)
	}
	free := newRun("paper", 3, nil)
	if err := free.check("fig1", 1); err != nil {
		t.Fatalf("unrecorded seed: %v", err)
	}
	if err := free.check("fig1", 2); err == nil {
		t.Error("a pass that differs from the first pass was accepted")
	}
}

// TestBenchmarkJSONMatchesOutput holds BENCHMARK.json to the metrics the
// benchmark prints: end_to_end to an untraced run's JSON line, per_layer to
// a traced run's.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(sortedKeys(workloads), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	emitted := func(ms []metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			if m.json {
				out[m.name] = m.unit
			}
		}
		return out
	}
	tr := &tracer{passes: 1, cpuNs: map[string]float64{}, allocBytes: map[string]float64{}}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		out  map[string]string
	}{
		{"end_to_end", spec.EndToEnd, emitted(endToEnd([]float64{1}, []float64{1}, []float64{1}, 1))},
		{"per_layer", spec.PerLayer, emitted(tr.ledger(newRun("paper", 0, nil), 1, 1))},
	} {
		for _, m := range c.spec {
			if unit, ok := c.out[m.Name]; !ok {
				t.Errorf("%s metric %s is not emitted", c.kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: unit %s, emitted as %s", c.kind, m.Name, m.Unit, unit)
			}
			delete(c.out, m.Name)
		}
		for name := range c.out {
			t.Errorf("emitted %s metric %s is missing from BENCHMARK.json", c.kind, name)
		}
	}
}
