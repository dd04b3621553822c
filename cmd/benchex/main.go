// Command benchex runs a standalone BenchEx configuration — the simulated
// trading-exchange benchmark — and prints client and server latency
// statistics. It is the equivalent of running the paper's benchmark by hand
// on the testbed.
//
// Usage:
//
//	benchex -buffer 64KB -duration 500ms
//	benchex -buffer 64KB -intf-buffer 2MB            # with interference
//	benchex -buffer 64KB -intf-buffer 2MB -cap 3     # and a static cap
//	benchex -policy ioshares -intf-buffer 2MB        # under ResEx
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"resex/internal/experiments"
	"resex/internal/invariant"
	"resex/internal/resex"
	"resex/internal/sim"
)

// maxSize bounds both buffer flags. The interferer's guest holds 19 buffers
// of its size (a send buffer and 18 receive slots, on the client and on the
// server alike), and a guest has 512 MB, so 26 MB is the most that fits;
// maxSize rounds that down to a power of two.
const maxSize = 16 << 20

// parseSize reads a positive byte size of at most maxSize, such as "64KB",
// "2MB" or "512B".
func parseSize(arg string) (int, error) {
	s := strings.ToUpper(strings.TrimSpace(arg))
	mult := 1
	switch {
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", arg)
	}
	if n <= 0 {
		return 0, fmt.Errorf("size %q is not positive", arg)
	}
	if n > maxSize/mult {
		return 0, fmt.Errorf("size %q is larger than %dMB", arg, maxSize>>20)
	}
	return n * mult, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the benchmark and writes
// the report to stdout and diagnostics to stderr, returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchex", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		buffer   = fs.String("buffer", "64KB", "reporting application buffer size (at most 16MB)")
		intfBuf  = fs.String("intf-buffer", "", "interfering application buffer size, at most 16MB (empty = none)")
		capPct   = fs.Int("cap", 0, "static CPU cap for the interfering VM (percent)")
		policy   = fs.String("policy", "", "ResEx policy: freemarket or ioshares (empty = no ResEx)")
		duration = fs.Duration("duration", 2*time.Second, "measured virtual time")
		seed     = fs.Int64("seed", 0, "workload seed offset")
		audit    = fs.Bool("audit", false, "run the invariant auditor alongside the benchmark (summary on stderr)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	bufSize, err := parseSize(*buffer)
	if err != nil {
		fmt.Fprintln(stderr, "benchex:", err)
		return 2
	}
	cfg := experiments.ScenarioConfig{RepBuffer: bufSize, IntfCap: *capPct, SLAUs: experiments.BaseSLAUs, Seed: *seed}
	if *intfBuf != "" {
		if cfg.IntfBuffer, err = parseSize(*intfBuf); err != nil {
			fmt.Fprintln(stderr, "benchex:", err)
			return 2
		}
	}
	switch *policy {
	case "":
	case "freemarket":
		cfg.Policy = resex.NewFreeMarket()
	case "ioshares":
		cfg.Policy = resex.NewIOShares()
	default:
		fmt.Fprintf(stderr, "benchex: unknown policy %q\n", *policy)
		return 2
	}

	s, err := experiments.Build(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchex:", err)
		return 1
	}
	// Sample the allocator around the run so every invocation doubles as a
	// zero-alloc regression probe for the event core. Stderr only: stdout
	// must stay byte-identical across runs of the same seed.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	opts := experiments.Options{Duration: sim.Time(duration.Nanoseconds())}
	var col *invariant.Collector
	if *audit {
		col = invariant.NewCollector(invariant.Audit)
		opts.Audit = col
	}
	wallStart := time.Now()
	s.RunMeasured(opts)
	wall := time.Since(wallStart)
	runtime.ReadMemStats(&m1)
	if col != nil {
		if err := col.WriteText(stderr); err != nil {
			fmt.Fprintln(stderr, "benchex:", err)
		}
	}
	if events := s.TB.Eng.Steps(); events > 0 {
		fmt.Fprintf(stderr, "sim core: %d events, %.1f ns/event wall, %.3f allocs/event, %.1f B/event\n",
			events,
			float64(wall.Nanoseconds())/float64(events),
			float64(m1.Mallocs-m0.Mallocs)/float64(events),
			float64(m1.TotalAlloc-m0.TotalAlloc)/float64(events))
	}

	st := s.RepStats()
	cs := s.Reporters[0].Client.Stats()
	fmt.Fprintf(stdout, "BenchEx %s reporting application", *buffer)
	if cfg.IntfBuffer > 0 {
		fmt.Fprintf(stdout, " vs %s interferer", *intfBuf)
	}
	if cfg.Policy != nil {
		fmt.Fprintf(stdout, " under ResEx/%s", cfg.Policy.Name())
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "\nServer-side service time (%d requests):\n", st.Served)
	fmt.Fprintf(stdout, "  PTime  %8.1f µs  (std %6.1f)\n", st.P.Mean(), st.P.StdDev())
	fmt.Fprintf(stdout, "  CTime  %8.1f µs  (std %6.1f)\n", st.C.Mean(), st.C.StdDev())
	fmt.Fprintf(stdout, "  WTime  %8.1f µs  (std %6.1f)\n", st.W.Mean(), st.W.StdDev())
	fmt.Fprintf(stdout, "  total  %8.1f µs  (std %6.1f, min %.1f, max %.1f)\n",
		st.Total.Mean(), st.Total.StdDev(), st.Total.Min(), st.Total.Max())
	fmt.Fprintf(stdout, "\nClient-side end-to-end latency (%d responses):\n", cs.Received)
	fmt.Fprintf(stdout, "  mean %8.1f µs   p50 %8.1f   p99 %8.1f   max %8.1f\n",
		cs.Latency.Mean(), cs.Sample.Quantile(0.5), cs.Sample.Quantile(0.99), cs.Latency.Max())
	if s.Mgr != nil {
		fmt.Fprintln(stdout, "\nResEx state:")
		for _, vm := range s.Mgr.VMs() {
			fmt.Fprintf(stdout, "  %-12s rate %6.2f  cap %3.0f%%  %s\n",
				vm.Dom.Name(), vm.Rate(), vm.Cap(), vm.Account)
		}
	}
	return 0
}
