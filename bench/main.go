// Command bench is the repository benchmark. It runs one workload of the
// ResEx reproduction in this process for a fixed wall-clock budget, checks
// that every operation reproduced the recorded behaviour, and prints host-time
// metrics: end to end by default, per layer with --trace 1.
//
//	bash bench/run.sh --workload paper --seed 0 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":56,"failed":0,"metrics":{"wall_s":{"value":5.1,"unit":"s"},...}}
//
// The simulated results are pinned per seed by digests (golden.json), so
// the benchmark measures only how long the host takes to produce them.
// See README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"resex/internal/experiments"
)

// setupProbes is how many fresh processes set-up time is measured over.
const setupProbes = 11

// traceRoot is where --trace 1 writes its profiles, spans and ledger,
// relative to the directory the benchmark runs in.
const traceRoot = ".bench_build/trace"

//go:embed golden.json
var goldenJSON []byte

func main() {
	name := flag.String("workload", "", "workload to run: paper, fleet, shardsched or daemon")
	seed := flag.Int64("seed", 0, "workload seed; seeds 0 and 7 are checked against golden.json")
	seconds := flag.Int("seconds", 20, "wall-clock budget of the measured passes")
	trace := flag.Int("trace", 0, "1: alternate untraced and profiled, audited passes and report per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "set the workload up and exit (set-up time is measured over fresh processes)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench --workload paper|fleet|shardsched|daemon --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := w.setUp(*seed); err != nil {
		fatal(fmt.Errorf("set-up: %w", err))
	}
	if *setupOnly {
		return
	}
	golden, err := goldenFor(*name, *seed)
	if err != nil {
		fatal(err)
	}
	env, _ := json.Marshal(environment()) // strings and ints always marshal
	fmt.Printf("env %s\n", env)

	r := newRun(*name, *seed, golden)
	budget := time.Duration(*seconds) * time.Second
	var metrics []metric
	if *trace == 0 {
		setup, err := timeSetUp(*name, *seed)
		if err != nil {
			fatal(err)
		}
		metrics = r.measure(w, budget, setup)
	} else {
		dir := filepath.Join(traceRoot, fmt.Sprintf("%s-seed%d", *name, *seed))
		if metrics, err = r.traced(w, budget, dir); err != nil {
			fatal(err)
		}
		fmt.Printf("trace %s\n", dir)
	}
	r.report(metrics)
	if r.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// goldenFor returns the recorded per-operation digests of a workload at a
// seed, or nil when none are recorded (the digests are then printed, not
// checked).
func goldenFor(workload string, seed int64) (map[string]string, error) {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return all[workload][strconv.FormatInt(seed, 10)], nil
}

// environment is printed with every run: a speed is meaningless without
// the machine and runtime it was measured on.
func environment() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return map[string]any{
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"gogc":         gogc,
		"vcs_revision": rev,
	}
}

// timeSetUp measures set-up as users pay it: the wall time of a fresh
// process that starts, sets the workload up and exits. It returns the
// median over setupProbes processes, run one after another.
func timeSetUp(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// run is one invocation's state: the correctness record and the timings
// of every operation.
type run struct {
	workload string
	seed     int64
	golden   map[string]string // op → recorded digest; nil when none is recorded
	digests  map[string]string // op → digest of the op's first run in this process
	order    []string          // ops in the order they first ran

	attempted, failed int

	tr *tracer // non-nil during a traced pass

	// opWall holds the wall seconds of every run of each op, from untraced
	// passes only.
	opWall map[string][]float64
	// sched holds each schedshard driver's counters from its last run.
	sched map[string]schedCounts
	// snapshotBytes is the size of the daemon's last encoded snapshot.
	snapshotBytes int
}

// schedCounts are the scheduler totals over one driver's result rows.
type schedCounts struct {
	placed, failed, rounds, conflicts, retries, gangsPartial float64
}

func newRun(workload string, seed int64, golden map[string]string) *run {
	return &run{
		workload: workload,
		seed:     seed,
		golden:   golden,
		digests:  map[string]string{},
		opWall:   map[string][]float64{},
		sched:    map[string]schedCounts{},
	}
}

// op runs one operation, timing it and recording a span when traced. An
// error fails the operation; it is reported on standard error with the
// workload and operation. op reports whether the operation succeeded.
func (r *run) op(name string, fn func() error) bool {
	r.attempted++
	end := r.tr.span(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	end()
	if r.tr == nil {
		r.opWall[name] = append(r.opWall[name], d)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: workload %s, op %s: %v\n", r.workload, name, err)
		return false
	}
	return true
}

// check compares an operation's output digest with its first run in this
// process (every pass must reproduce it) and with golden.json.
func (r *run) check(op string, sum uint64) error {
	got := fmt.Sprintf("%016x", sum)
	if prev, ok := r.digests[op]; !ok {
		r.digests[op] = got
		r.order = append(r.order, op)
	} else if prev != got {
		return fmt.Errorf("digest %s, but %s on this run's first pass: output is not deterministic", got, prev)
	}
	if r.golden == nil {
		return nil
	}
	if want, ok := r.golden[op]; !ok {
		return fmt.Errorf("digest %s, but golden.json has no digest for this op at seed %d", got, r.seed)
	} else if want != got {
		return fmt.Errorf("digest %s, golden %s", got, want)
	}
	return nil
}

// observe records the scheduler counters of a schedshard driver's result.
func (r *run) observe(id string, res experiments.Result) {
	var c schedCounts
	switch res := res.(type) {
	case *experiments.AblShardSchedResult:
		for _, row := range res.Rows {
			c.placed += float64(row.Placed)
			c.failed += float64(row.Failed)
			c.rounds += float64(row.Rounds)
			c.conflicts += float64(row.Conflicts)
			c.retries += float64(row.Retries)
		}
	case *experiments.AblScaleSetResult:
		for _, row := range res.Rows {
			c.placed += float64(row.Placed)
			c.failed += float64(row.Failed)
			c.rounds += float64(row.Rounds)
			c.conflicts += float64(row.Conflicts)
			c.retries += float64(row.Retries)
			c.gangsPartial += float64(row.GangsPartial)
		}
	default:
		return
	}
	r.sched[id] = c
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocatedMB is the heap allocated since the process started.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// metric is one named measurement. json marks the ones the final JSON line
// carries; the rest are printed as lines and written to the trace ledger.
type metric struct {
	name  string
	value float64
	unit  string
	json  bool
}

// value is a metric as the JSON outputs carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// untraced runs one pass of w with tracing off, returning its wall and CPU
// seconds and the megabytes it allocated.
func (r *run) untraced(w workload) (wall, cpu, alloc float64) {
	t0, c0, a0 := time.Now(), cpuSeconds(), allocatedMB()
	w.pass(r)
	return time.Since(t0).Seconds(), cpuSeconds() - c0, allocatedMB() - a0
}

// measure runs untraced passes until one more would overrun the budget (at
// least one) and returns the end-to-end metrics: medians over the passes.
func (r *run) measure(w workload, budget time.Duration, setup float64) []metric {
	var walls, cpus, allocs []float64
	start := time.Now()
	for {
		wall, cpu, alloc := r.untraced(w)
		fmt.Printf("pass %d wall_s %v cpu_s %v alloc_mb %v\n", len(walls), wall, cpu, alloc)
		walls, cpus, allocs = append(walls, wall), append(cpus, cpu), append(allocs, alloc)
		if time.Since(start)+time.Duration(wall*1e9) > budget {
			break
		}
	}
	ms := endToEnd(walls, cpus, allocs, setup)
	ms = append(ms, metric{"peak_rss_mb", peakRSSMB(), "MB", false})
	return append(ms, r.opMetrics()...)
}

// endToEnd are the metrics a user of the system sees, as medians over the
// passes: wall and CPU seconds and heap megabytes allocated per pass, and
// the set-up time.
func endToEnd(walls, cpus, allocs []float64, setup float64) []metric {
	return []metric{
		{"wall_s", median(walls), "s", true},
		{"cpu_s", median(cpus), "s", true},
		{"alloc_mb", median(allocs), "MB", true},
		{"setup_s", setup, "s", true},
	}
}

// opMetrics are the per-operation timings printed with every run: each
// driver's median wall time, and the daemon's step latency and speed.
func (r *run) opMetrics() []metric {
	var ms []metric
	if steps := r.opWall["step"]; len(steps) > 0 {
		n := len(steps)
		ms = append(ms,
			metric{"daemon.step_p50_ms", 1e3 * percentile(steps, 50), "ms", false},
			metric{"daemon.step_samples", float64(n), "count", false})
		if p := tailPercentile(n); p > 0 {
			ms = append(ms, metric{fmt.Sprintf("daemon.step_p%g_ms", p), 1e3 * percentile(steps, p), "ms", false})
		}
		total := 0.0
		for _, d := range steps {
			total += d
		}
		ms = append(ms,
			metric{"daemon.sim_speed", float64(n) * sessionQuantum.Seconds() / total, "virtual_s/s", false},
			metric{"daemon.apply_ms", 1e3 * median(r.opWall["apply"]), "ms", false},
			metric{"daemon.restore_s", median(r.opWall["restore"]), "s", false},
			metric{"snapshot.encode_ms", 1e3 * median(r.opWall["snapshot"]), "ms", false})
	}
	for _, id := range experiments.IDs() {
		if ts := r.opWall[id]; len(ts) > 0 {
			ms = append(ms, metric{"driver." + id + ".wall_s", median(ts), "s", false})
		}
	}
	return ms
}

// report prints the digests, every metric as a line, and the final JSON
// result line.
func (r *run) report(ms []metric) {
	h := fnv.New64a()
	for _, op := range r.order {
		h.Write([]byte(op + "=" + r.digests[op] + "\n"))
	}
	ds, _ := json.Marshal(r.digests) // a map of strings always marshals
	fmt.Printf("digests %s\n", ds)
	if r.golden == nil {
		fmt.Printf("digest %016x (seed %d has no golden digests; not checked)\n", h.Sum64(), r.seed)
	} else {
		fmt.Printf("digest %016x (checked against golden.json)\n", h.Sum64())
	}
	out := map[string]value{}
	for _, m := range ms {
		fmt.Printf("metric %s %v %s\n", m.name, m.value, m.unit)
		if m.json {
			out[m.name] = value{m.value, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		fatal(fmt.Errorf("result line: %w", err))
	}
	fmt.Println(string(line))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
