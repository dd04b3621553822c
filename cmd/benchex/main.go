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

// parseSize reads a positive byte size such as "64KB", "2MB" or "512B".
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
	return n * mult, nil
}

func main() {
	var (
		buffer   = flag.String("buffer", "64KB", "reporting application buffer size")
		intfBuf  = flag.String("intf-buffer", "", "interfering application buffer size (empty = none)")
		capPct   = flag.Int("cap", 0, "static CPU cap for the interfering VM (percent)")
		policy   = flag.String("policy", "", "ResEx policy: freemarket or ioshares (empty = no ResEx)")
		duration = flag.Duration("duration", 2*time.Second, "measured virtual time")
		seed     = flag.Int64("seed", 0, "workload seed offset")
		audit    = flag.Bool("audit", false, "run the invariant auditor alongside the benchmark (summary on stderr; this is how BENCH_invariant.json's overhead is measured)")
	)
	flag.Parse()

	bufSize, err := parseSize(*buffer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchex:", err)
		os.Exit(2)
	}
	cfg := experiments.ScenarioConfig{RepBuffer: bufSize, IntfCap: *capPct, SLAUs: experiments.BaseSLAUs, Seed: *seed}
	if *intfBuf != "" {
		if cfg.IntfBuffer, err = parseSize(*intfBuf); err != nil {
			fmt.Fprintln(os.Stderr, "benchex:", err)
			os.Exit(2)
		}
	}
	switch strings.ToLower(*policy) {
	case "":
	case "freemarket", "fm":
		cfg.Policy = resex.NewFreeMarket()
	case "ioshares", "ios":
		cfg.Policy = resex.NewIOShares()
	default:
		fmt.Fprintf(os.Stderr, "benchex: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	s, err := experiments.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchex:", err)
		os.Exit(1)
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
		if err := col.WriteText(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "benchex:", err)
		}
	}
	if events := s.TB.Eng.Steps(); events > 0 {
		fmt.Fprintf(os.Stderr, "sim core: %d events, %.1f ns/event wall, %.3f allocs/event, %.1f B/event\n",
			events,
			float64(wall.Nanoseconds())/float64(events),
			float64(m1.Mallocs-m0.Mallocs)/float64(events),
			float64(m1.TotalAlloc-m0.TotalAlloc)/float64(events))
	}

	st := s.RepStats()
	cs := s.Reporters[0].Client.Stats()
	fmt.Printf("BenchEx %s reporting application", *buffer)
	if cfg.IntfBuffer > 0 {
		fmt.Printf(" vs %s interferer", *intfBuf)
	}
	if cfg.Policy != nil {
		fmt.Printf(" under ResEx/%s", cfg.Policy.Name())
	}
	fmt.Println()
	fmt.Printf("\nServer-side service time (%d requests):\n", st.Served)
	fmt.Printf("  PTime  %8.1f µs  (std %6.1f)\n", st.P.Mean(), st.P.StdDev())
	fmt.Printf("  CTime  %8.1f µs  (std %6.1f)\n", st.C.Mean(), st.C.StdDev())
	fmt.Printf("  WTime  %8.1f µs  (std %6.1f)\n", st.W.Mean(), st.W.StdDev())
	fmt.Printf("  total  %8.1f µs  (std %6.1f, min %.1f, max %.1f)\n",
		st.Total.Mean(), st.Total.StdDev(), st.Total.Min(), st.Total.Max())
	fmt.Printf("\nClient-side end-to-end latency (%d responses):\n", cs.Received)
	fmt.Printf("  mean %8.1f µs   p50 %8.1f   p99 %8.1f   max %8.1f\n",
		cs.Latency.Mean(), cs.Sample.Quantile(0.5), cs.Sample.Quantile(0.99), cs.Latency.Max())
	if s.Mgr != nil {
		fmt.Println("\nResEx state:")
		for _, vm := range s.Mgr.VMs() {
			fmt.Printf("  %-12s rate %6.2f  cap %3.0f%%  %s\n",
				vm.Dom.Name(), vm.Rate(), vm.Cap(), vm.Account)
		}
	}
}
