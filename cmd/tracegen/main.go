// Command tracegen records, inspects and replays BenchEx workload logs —
// the stand-in for the exchange traces the paper's benchmark was built
// around.
//
// Usage:
//
//	tracegen -gen 10000 -seed 7 -out workload.trc    # record a workload
//	tracegen -info workload.trc                      # summarize a log
//	tracegen -replay workload.trc                    # run BenchEx over it
package main

import (
	"flag"
	"fmt"
	"os"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/sim"
	"resex/internal/trace"
)

func main() {
	var (
		gen    = flag.Int("gen", 0, "generate this many requests")
		seed   = flag.Int64("seed", 1, "generator seed")
		out    = flag.String("out", "workload.trc", "output file for -gen")
		info   = flag.String("info", "", "summarize a workload log")
		replay = flag.String("replay", "", "replay a workload log through BenchEx")
	)
	flag.Parse()

	switch {
	case *gen > 0:
		g := trace.NewGenerator(*seed)
		reqs := trace.Record(g, *gen)
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.WriteLog(f, reqs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d requests (%d bytes) to %s\n", len(reqs), 16+len(reqs)*trace.RequestSize, *out)

	case *info != "":
		reqs, err := load(*info)
		if err != nil {
			fatal(err)
		}
		counts := map[trace.RequestType]int{}
		symbols := map[uint32]bool{}
		for _, r := range reqs {
			counts[r.Type]++
			symbols[r.SymbolID] = true
		}
		fmt.Printf("%s: %d requests, %d symbols\n", *info, len(reqs), len(symbols))
		for _, t := range []trace.RequestType{trace.NewOrder, trace.CancelOrder, trace.QuoteRequest, trace.FeedRequest} {
			fmt.Printf("  %-10s %6d (%.1f%%)\n", t, counts[t], 100*float64(counts[t])/float64(len(reqs)))
		}

	case *replay != "":
		reqs, err := load(*replay)
		if err != nil {
			fatal(err)
		}
		tb := cluster.New(cluster.Config{})
		hostA, hostB := tb.AddHost(1), tb.AddHost(2)
		app, err := tb.NewApp("replay", hostA, hostB,
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{
				BufferSize: 64 << 10,
				Requests:   len(reqs),
				Seed:       *seed,
				Source:     trace.NewReplay(reqs, false),
			})
		if err != nil {
			fatal(err)
		}
		app.Start()
		tb.Eng.RunUntil(sim.Time(len(reqs)+1000) * 300 * sim.Microsecond)
		cs := app.Client.Stats()
		fmt.Printf("replayed %d/%d requests: latency mean %.1fµs p99 %.1fµs over %v virtual time\n",
			cs.Received, len(reqs), cs.Latency.Mean(), cs.Sample.Quantile(0.99), tb.Eng.Now())
		tb.Eng.Shutdown()

	default:
		fmt.Fprintln(os.Stderr, "tracegen: need -gen N, -info FILE or -replay FILE")
		flag.Usage()
		os.Exit(2)
	}
}

// load reads a workload log, rejecting one with no requests: -info has no
// mix to report and -replay no request to send.
func load(path string) ([]trace.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reqs, err := trace.ReadLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s: workload log holds no requests", path)
	}
	return reqs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
