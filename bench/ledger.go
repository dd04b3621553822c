package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"resex/internal/invariant"
)

// layers are the rows of the per-layer ledger: every resex/internal
// package the workloads link, the benchmark's own code, and the runtime's
// two buckets (see layerOf). A package missing here is still charged and
// printed; it is only left out of the final JSON line.
var layers = []string{
	"sim", "fabric", "hca", "xen", "ibmon", "guestmem", "splitdriver", "cluster",
	"benchex", "trace", "finance", "workload", "resex", "resos", "exchange",
	"placement", "schedshard", "simpar", "faults", "softrt", "stats",
	"snapshot", "invariant", "daemon", "experiments", "bench",
	"runtime.gc", "runtime.other",
}

// tracer records a traced pass: spans at the benchmark's own operation
// boundaries, the CPU and allocation profiles charged to layers, runtime
// memory statistics and invariant audit totals. All totals are summed over
// the traced passes.
type tracer struct {
	dir   string
	epoch time.Time // span times are nanoseconds since epoch
	spans []span
	open  []int // ids of the spans not yet ended, innermost last

	passes     int
	wall, cpu  float64            // seconds
	cpuNs      map[string]float64 // layer → profiled CPU nanoseconds
	allocBytes map[string]float64 // layer → allocated bytes

	events, checks, violations      float64
	allocTotal, gcCycles, gcPauseNs float64
}

// span is one timed operation. Parent is the enclosing span's id (0 for a
// pass).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// span opens a span and returns the function that ends it. On a nil
// tracer (an untraced pass) it records nothing.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// audit adds a closed collector's totals; any violation fails the
// operation that was audited.
func (t *tracer) audit(col *invariant.Collector) error {
	rep := col.Report()
	t.events += float64(rep.Events)
	t.checks += float64(rep.Checks)
	t.violations += float64(rep.Total)
	if rep.Total > 0 {
		return fmt.Errorf("%d invariant violations, first %v", rep.Total, rep.First[0])
	}
	return nil
}

// traced alternates untraced and traced passes until one more pair would
// overrun the budget (at least one pair), writes the ledger, spans and
// raw profiles into dir, and returns the per-layer metrics.
func (r *run) traced(w workload, budget time.Duration, dir string) ([]metric, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &tracer{dir: dir, epoch: time.Now(), cpuNs: map[string]float64{}, allocBytes: map[string]float64{}}
	var walls, twalls []float64
	start := time.Now()
	for {
		t0 := time.Now()
		wall, _, _ := r.untraced(w)
		walls = append(walls, wall)
		tw := t.wall
		if err := r.tracedPass(w, t); err != nil {
			return nil, err
		}
		twalls = append(twalls, t.wall-tw)
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	fmt.Printf("passes %d untraced, %d traced\n", len(walls), len(twalls))
	ms := t.ledger(r, median(walls), median(twalls))
	return ms, t.write(r, ms)
}

// tracedPass runs one pass of w under the CPU profiler and the invariant
// auditor, charging its CPU and allocations to layers.
func (r *run) tracedPass(w workload, t *tracer) error {
	n := t.passes
	before, err := allocsByLayer("")
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpuPath := filepath.Join(t.dir, fmt.Sprintf("cpu-%d.pb.gz", n))
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	r.tr = t
	t0, c0 := time.Now(), cpuSeconds()
	end := t.span("pass " + r.workload)
	w.pass(r)
	end()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	r.tr = nil
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	after, err := allocsByLayer(filepath.Join(t.dir, fmt.Sprintf("allocs-%d.pb.gz", n)))
	if err != nil {
		return err
	}
	data, err := os.ReadFile(cpuPath)
	if err != nil {
		return err
	}
	p, err := parseProfile(data)
	if err != nil {
		return fmt.Errorf("%s: %w", cpuPath, err)
	}
	byLayer(p, "cpu", t.cpuNs)
	for l, b := range after {
		t.allocBytes[l] += b - before[l]
	}
	t.passes++
	t.wall += wall
	t.cpu += cpu
	t.allocTotal += float64(ms1.TotalAlloc - ms0.TotalAlloc)
	t.gcCycles += float64(ms1.NumGC - ms0.NumGC)
	t.gcPauseNs += float64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return nil
}

// allocsByLayer returns the bytes allocated since the process started,
// per layer, from the allocation profile. It collects garbage first: the
// profile is only current as of the last completed collection. A non-empty
// path keeps the raw profile.
func allocsByLayer(path string) (map[string]float64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	if path != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	m := map[string]float64{}
	byLayer(p, "alloc_space", m)
	return m, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger turns the traced totals into per-pass layer metrics.
// untracedWall and tracedWall are median pass times with tracing off and on.
func (t *tracer) ledger(r *run, untracedWall, tracedWall float64) []metric {
	n := float64(t.passes)
	var ms []metric
	add := func(name string, v float64, unit string, inJSON bool) {
		ms = append(ms, metric{name, v, unit, inJSON})
	}
	profiled := 0.0
	for _, ns := range t.cpuNs {
		profiled += ns
	}
	listed := map[string]bool{}
	for _, l := range layers {
		listed[l] = true
		add(l+".cpu_pct", 100*ratio(t.cpuNs[l], profiled), "%", true)
		add(l+".cpu_s", t.cpuNs[l]/1e9/n, "s", false)
		add(l+".alloc_mb", t.allocBytes[l]/(1<<20)/n, "MB", true)
	}
	for _, l := range sortedKeys(t.cpuNs) {
		if !listed[l] {
			add(l+".cpu_s", t.cpuNs[l]/1e9/n, "s", false)
		}
	}
	add("tracing.profiled_cpu_pct", 100*ratio(profiled/1e9, t.cpu), "%", true)
	add("tracing.overhead_pct", 100*(ratio(tracedWall, untracedWall)-1), "%", true)

	add("sim.events", t.events/n, "count", true)
	add("sim.ns_per_event", 1e9*ratio(t.cpu, t.events), "ns", true)
	add("runtime.alloc_gb", t.allocTotal/(1<<30)/n, "GB", true)
	add("runtime.gc_cycles", t.gcCycles/n, "count", true)
	add("runtime.gc_pause_ms", t.gcPauseNs/1e6/n, "ms", true)
	add("invariant.checks", t.checks/n, "count", true)
	add("invariant.violations", t.violations/n, "count", true)

	var s schedCounts
	for _, c := range r.sched {
		s.placed += c.placed
		s.failed += c.failed
		s.rounds += c.rounds
		s.conflicts += c.conflicts
		s.retries += c.retries
		s.gangsPartial += c.gangsPartial
	}
	add("schedshard.placed", s.placed, "count", true)
	add("schedshard.failed", s.failed, "count", true)
	add("schedshard.rounds", s.rounds, "count", true)
	add("schedshard.conflicts", s.conflicts, "count", true)
	add("schedshard.retries", s.retries, "count", true)
	add("schedshard.gangs_partial", s.gangsPartial, "count", true)
	add("schedshard.useful_ratio", ratio(s.placed, s.placed+s.conflicts), "ratio", true)
	add("schedshard.us_per_placement", 1e6*ratio(t.cpuNs["schedshard"]/1e9/n, s.placed), "us", false)
	add("snapshot.bytes", float64(r.snapshotBytes), "bytes", true)
	return append(ms, r.opMetrics()...)
}

// write saves the ledger (layers.json) and the spans (spans.jsonl).
func (t *tracer) write(r *run, ms []metric) error {
	vals := map[string]value{}
	for _, m := range ms {
		vals[m.name] = value{m.value, m.unit}
	}
	led, err := json.MarshalIndent(map[string]any{
		"workload": r.workload, "seed": r.seed, "traced_passes": t.passes,
		"env": environment(), "metrics": vals,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(t.dir, "layers.json"), led, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(t.dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
