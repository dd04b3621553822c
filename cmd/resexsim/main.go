// Command resexsim reproduces the paper's evaluation figures.
//
// Usage:
//
//	resexsim -fig fig7                 # one figure, text output
//	resexsim -all                      # every figure
//	resexsim -fig fig9 -csv            # CSV to stdout
//	resexsim -fig fig5 -duration 10s   # longer measured window
//	resexsim -list                     # available figures
//
// Checkpoint/restore:
//
//	resexsim -fig fig7 -snapshot run.snap -snapshot-at 1s
//	resexsim -restore run.snap
//
// The first form runs the figure normally (its output is byte-identical to
// a run without -snapshot) and additionally captures every engine's full
// state at the given virtual time into run.snap. The second rebuilds the
// run from the snapshot's recorded inputs, replays it to the capture point
// under byte-for-byte state verification, and runs to the end: stdout is
// byte-identical to the uninterrupted run, and any state divergence at the
// capture point is a hard error.
//
// The -duration flag trades fidelity for wall time; the defaults give
// stable shapes in a few seconds per figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"resex/internal/experiments"
	"resex/internal/invariant"
	"resex/internal/report"
	"resex/internal/sim"
	"resex/internal/snapshot"
)

// listExperiments writes every registered experiment, sorted by id and
// aligned to the longest one — the single source for -list and for the
// unknown-experiment usage message.
func listExperiments(w io.Writer, indent string) {
	ids := experiments.IDs()
	width := 0
	for _, id := range ids {
		if len(id) > width {
			width = len(id)
		}
	}
	for _, id := range ids {
		e, _ := experiments.Lookup(id)
		fmt.Fprintf(w, "%s%-*s %s\n", indent, width, e.ID, e.Title)
	}
}

// usageErr prints a one-line complaint plus the flag usage and exits 2, the
// conventional bad-invocation status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "resexsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// progress tracks the run for the signal handler's partial summary: which
// experiments finished and which one a SIGINT/SIGTERM caught in flight.
type progress struct {
	mu        sync.Mutex
	total     int
	completed []string
	current   string
}

func (p *progress) start(id string) {
	p.mu.Lock()
	p.current = id
	p.mu.Unlock()
}

func (p *progress) done(id string) {
	p.mu.Lock()
	p.completed = append(p.completed, id)
	p.current = ""
	p.mu.Unlock()
}

// interrupt flushes the partial summary and exits with the conventional
// 128+signal status. Results already printed stay on stdout; the summary
// goes to stderr so interrupted and complete runs never mix streams.
func (p *progress) interrupt(sig os.Signal) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(os.Stderr, "resexsim: caught %v; completed %d/%d experiments",
		sig, len(p.completed), p.total)
	if len(p.completed) > 0 {
		fmt.Fprintf(os.Stderr, " (%s)", strings.Join(p.completed, ", "))
	}
	if p.current != "" {
		fmt.Fprintf(os.Stderr, "; %s was in flight and is discarded", p.current)
	}
	fmt.Fprintln(os.Stderr)
	code := 130 // SIGINT
	if sig == syscall.SIGTERM {
		code = 143
	}
	os.Exit(code)
}

func main() {
	var (
		fig        = flag.String("fig", "", "experiment id to reproduce (see -list for all ids)")
		all        = flag.Bool("all", false, "reproduce every figure")
		list       = flag.Bool("list", false, "list available figures")
		csv        = flag.Bool("csv", false, "emit CSV instead of text")
		jsonOut    = flag.Bool("json", false, "emit result structs as JSON")
		svgDir     = flag.String("svg", "", "also write <dir>/<fig>.svg charts")
		duration   = flag.Duration("duration", 2*time.Second, "measured virtual time per run")
		warmup     = flag.Duration("warmup", 100*time.Millisecond, "virtual warmup before measuring")
		seed       = flag.Int64("seed", 0, "workload seed offset (same seed = byte-identical output)")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for a figure's independent sweep points (output is byte-identical at any value)")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "worker goroutines per schedshard placement round (output is byte-identical at any value; the logical shard count is the experiment's sweep axis)")
		simShards  = flag.Int("simshards", 1, "worker goroutines per sharded-simulation window (abl-simpar; output is byte-identical at any value)")
		audit      = flag.Bool("audit", false, "run the invariant auditor alongside every figure and print its summary (deterministic; cannot change figure output)")
		snapFile   = flag.String("snapshot", "", "capture every engine's state into this file (requires a single -fig)")
		snapAt     = flag.Duration("snapshot-at", 0, "virtual capture time for -snapshot, measured from engine start (default warmup + duration/2)")
		restoreArg = flag.String("restore", "", "restore from a snapshot file: rebuild, replay under state verification, run to the end (exclusive with -fig/-all)")
	)
	flag.Parse()

	if *list {
		listExperiments(os.Stdout, "")
		return
	}

	// Validate the numeric flags before any simulation work: a bad width or
	// window must die with usage, not misbehave minutes in.
	if *parallel < 1 {
		usageErr("-parallel must be >= 1 (got %d)", *parallel)
	}
	if *shards < 1 {
		usageErr("-shards must be >= 1 (got %d)", *shards)
	}
	if *simShards < 1 {
		usageErr("-simshards must be >= 1 (got %d)", *simShards)
	}
	if *simShards > runtime.GOMAXPROCS(0) {
		// Warn, don't refuse: extra window workers beyond the CPUs (or the
		// fleet's host count, whichever is hit first — the coordinator
		// clamps workers to its shard count) add scheduling overhead, not
		// speed. Output is unaffected either way.
		fmt.Fprintf(os.Stderr, "resexsim: warning: -simshards %d exceeds %d available CPUs; extra workers add overhead, not speed\n",
			*simShards, runtime.GOMAXPROCS(0))
	}
	if *duration <= 0 {
		usageErr("-duration must be positive (got %v)", *duration)
	}
	if *warmup < 0 {
		usageErr("-warmup must not be negative (got %v)", *warmup)
	}
	if *snapAt < 0 {
		usageErr("-snapshot-at must not be negative (got %v)", *snapAt)
	}

	var plan *snapshot.Plan
	var bundle *snapshot.Bundle
	var ids []string
	switch {
	case *restoreArg != "":
		if *fig != "" || *all || *snapFile != "" {
			usageErr("-restore replays the snapshot's own run; it cannot combine with -fig, -all or -snapshot")
		}
		var err error
		bundle, err = snapshot.ReadFile(*restoreArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resexsim:", err)
			os.Exit(1)
		}
		if bundle.Meta.Kind != "experiment" {
			fmt.Fprintf(os.Stderr, "resexsim: %s holds a %q snapshot, not an experiment (use resexctl restore)\n",
				*restoreArg, bundle.Meta.Kind)
			os.Exit(1)
		}
		// The run is a pure function of its recorded inputs: id, seed,
		// windows and audit mode all come from the file, not from flags.
		ids = []string{bundle.Meta.Experiment}
		*seed = bundle.Meta.Seed
		*duration = time.Duration(bundle.Meta.DurationNs)
		*warmup = time.Duration(bundle.Meta.WarmupNs)
		*audit = bundle.Meta.Audit
		plan = snapshot.NewVerify(bundle)
	case *all:
		if *snapFile != "" {
			usageErr("-snapshot records a single experiment's run; use -fig, not -all")
		}
		ids = experiments.IDs()
	case *fig != "":
		ids = []string{*fig}
	default:
		fmt.Fprintln(os.Stderr, "resexsim: need -fig <id>, -all, -list or -restore <file>")
		flag.Usage()
		os.Exit(2)
	}

	if *snapFile != "" {
		at := sim.Time(snapAt.Nanoseconds())
		if at == 0 {
			at = sim.Time(warmup.Nanoseconds()) + sim.Time(duration.Nanoseconds())/2
		}
		plan = snapshot.NewCapture(at)
	}

	// Validate every id up front: an unknown experiment must fail fast with
	// the valid names, not after earlier runs burned minutes of sim time.
	for _, id := range ids {
		if _, err := experiments.Lookup(id); err != nil {
			fmt.Fprintf(os.Stderr, "resexsim: unknown experiment %q\n\nvalid experiments:\n", id)
			listExperiments(os.Stderr, "  ")
			os.Exit(2)
		}
	}

	prog := &progress{total: len(ids)}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		prog.interrupt(<-sigCh)
	}()

	opts := experiments.Options{
		Duration:     sim.Time(duration.Nanoseconds()),
		Warmup:       sim.Time(warmup.Nanoseconds()),
		Seed:         *seed,
		Parallel:     *parallel,
		ShardWorkers: *shards,
		SimShards:    *simShards,
		Checkpoint:   plan,
	}
	var index []report.IndexEntry
	for _, id := range ids {
		e, _ := experiments.Lookup(id)
		start := time.Now()
		prog.start(id)
		runOpts := opts
		var col *invariant.Collector
		if *audit {
			col = invariant.NewCollector(invariant.Audit)
			runOpts.Audit = col
		}
		res, err := e.Run(runOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resexsim: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "resexsim:", err)
				os.Exit(1)
			}
			svg, err := report.RenderSVG(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "resexsim:", err)
				os.Exit(1)
			}
			path := filepath.Join(*svgDir, id+".svg")
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "resexsim:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			var txt strings.Builder
			_ = res.WriteText(&txt)
			index = append(index, report.IndexEntry{
				ID: id, Title: e.Title, SVGFile: id + ".svg", Text: txt.String(),
			})
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{"id": id, "title": e.Title, "result": res}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else if *csv {
			if err := res.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			if err := res.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			// Stderr, so two same-seed runs stay byte-identical on stdout.
			fmt.Fprintf(os.Stderr, "[%s completed in %v wall time]\n", id, time.Since(start).Round(time.Millisecond))
		}
		if col != nil {
			// Deterministic, so it belongs on stdout in text mode (the
			// determinism gates diff it too); stderr keeps CSV/JSON clean.
			auditOut := os.Stdout
			if *jsonOut || *csv {
				auditOut = os.Stderr
			}
			if err := col.WriteText(auditOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		prog.done(id)
	}
	switch {
	case *snapFile != "":
		b, err := plan.Bundle(snapshot.Meta{
			Kind:       "experiment",
			Experiment: ids[0],
			Seed:       *seed,
			DurationNs: duration.Nanoseconds(),
			WarmupNs:   warmup.Nanoseconds(),
			Audit:      *audit,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "resexsim:", err)
			os.Exit(1)
		}
		if err := snapshot.WriteFile(*snapFile, b); err != nil {
			fmt.Fprintln(os.Stderr, "resexsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d engine snapshots at T=%v)\n",
			*snapFile, len(b.Snaps), sim.Time(b.Meta.SnapshotAtNs))
	case *restoreArg != "":
		if err := plan.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "resexsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "restore verified: replayed state matches %s at T=%v\n",
			*restoreArg, sim.Time(bundle.Meta.SnapshotAtNs))
	}
	if *svgDir != "" && len(index) > 0 {
		page := report.HTMLIndex("ResEx reproduction — figures and ablations", index)
		path := filepath.Join(*svgDir, "index.html")
		if err := os.WriteFile(path, []byte(page), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "resexsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	signal.Stop(sigCh)
}
