// Package experiments reproduces every figure of the paper's evaluation
// (Figures 1–9). Each figure has a driver that builds the two-host testbed,
// runs the exact workload and parameter sweep of the paper, and emits the
// same rows/series the figure plots, as text tables and CSV.
//
// Absolute numbers come from a simulator calibrated to the paper's platform
// constants (1 GB/s payload link, 1 KB MTU, ~90 µs per-64KB-request
// processing); the claims being reproduced are the *shapes*: who wins, by
// roughly what factor, and where the crossovers are. EXPERIMENTS.md records
// paper-reported vs measured values side by side.
package experiments

import (
	"fmt"
	"io"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/fabric"
	"resex/internal/ibmon"
	"resex/internal/invariant"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// BaseBuffer is the reporting VM's buffer size throughout the paper.
const BaseBuffer = 64 << 10

// intfProcessTime is the interference generator's fixed per-request CPU
// cost, independent of buffer size: this is what makes a CPU cap of C%
// throttle the generator's issue rate to C/100/intfProcessTime and
// therefore its bytes/s to (C/100)·B/intfProcessTime — the linear cap→I/O
// relationship Figures 3–4 establish (cap = 100/BufferRatio equalizes
// residual interference across buffer sizes).
const intfProcessTime = 2 * sim.Millisecond

// Options tunes experiment scale.
type Options struct {
	// Duration is the measured portion of each run. The full figures use
	// seconds of virtual time; quick runs (benchmarks, CI) use less.
	// Default 2 s.
	Duration sim.Time
	// Warmup is discarded before measuring. Default 100 ms.
	Warmup sim.Time
	// Seed offsets every workload generator seed, so re-runs with a
	// different seed explore a different (but still fully deterministic)
	// request arrival pattern. Default 0 preserves the historical outputs.
	Seed int64
	// Parallel bounds the goroutines RunSweep uses to execute a figure's
	// independent sweep points. 1 or less runs points serially; higher
	// values change wall-clock time only — results are merged in
	// declaration order, so output is byte-identical either way.
	Parallel int
	// PointSeed is set by RunSweep for each sweep point: a splitmix64
	// stream derived from (Seed, point index). Points that want
	// decorrelated randomness may use it instead of offsetting Seed by
	// hand. It is informational for the historical figure drivers, which
	// keep their original Seed arithmetic to preserve recorded outputs.
	PointSeed int64
	// ShardWorkers bounds the goroutines a schedshard scheduler uses to
	// run one placement round's logical shards (resexsim -shards). Like
	// Parallel it is a wall-clock knob only: shard partition, proposal
	// order and the commit merge are all canonical, so output is
	// byte-identical at any width. 1 or less runs shards serially.
	ShardWorkers int
	// SimShards bounds the worker goroutines a sharded-simulation
	// coordinator (internal/simpar) uses to run one conservative window's
	// host shards (resexsim -simshards). The third wall-clock-only knob
	// alongside Parallel and ShardWorkers: windows, merge order and
	// message delivery are all canonical, so output — stdout, audit
	// summaries, snapshot bundles — is byte-identical at any width.
	// Drivers without a sharded coordinator ignore it. 1 or less runs
	// shards serially.
	SimShards int
	// Audit, when non-nil, attaches a runtime invariant auditor to every
	// engine the experiment builds and merges results into this collector.
	// The auditor is a pure observer: enabling it cannot change any figure
	// output (resexsim -audit; see internal/invariant).
	Audit *invariant.Collector
	// Checkpoint, when non-nil, arms every engine the experiment builds
	// with a seq-neutral snapshot breakpoint at the plan's capture point:
	// capture mode exports full state there, verify mode re-exports and
	// compares against a recorded bundle (resexsim -snapshot / -restore;
	// see internal/snapshot). Like Audit, it is a pure observer.
	Checkpoint *snapshot.Plan
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = 2 * sim.Second
	}
	if o.Warmup <= 0 {
		o.Warmup = 100 * sim.Millisecond
	}
	return o
}

// ScenarioConfig describes one experimental configuration.
type ScenarioConfig struct {
	// Reporters is the number of 64KB reporting applications (Figure 2
	// sweeps 1–3). Default 1.
	Reporters int
	// RepBuffer is the reporting apps' buffer size. Default 64 KB.
	RepBuffer int
	// IntfBuffer adds an interference generator with this buffer size
	// (0 = none).
	IntfBuffer int
	// IntfWindow is the interferer's outstanding-request window. Default 16.
	IntfWindow int
	// IntfInterval paces the interference generator. The default (3.7 ms,
	// i.e. ~270 requests/s) loads the link to ~70% of its contended
	// capacity at the 2 MB buffer — bursts overrun it, gaps drain it — and
	// is negligible at 64 KB, so interference strength scales with buffer
	// size, as in the paper. Figure 8's quiet case overrides this to
	// 100 ms (10 requests per epoch).
	IntfInterval sim.Time
	// IntfCap statically caps the interfering VM (Figures 3–4); 0 = none.
	IntfCap int
	// Policy enables ResEx with the given pricing policy (nil = no ResEx).
	Policy resex.Policy
	// Discipline overrides link arbitration (ablations).
	Discipline fabric.Discipline
	// Timeline retains per-request records.
	Timeline bool
	// Seed offsets the client generator seeds (see Options.Seed).
	Seed int64
}

// Scenario is a built, startable experiment instance.
type Scenario struct {
	TB        *cluster.Testbed
	Reporters []*cluster.App
	Intf      *cluster.App
	Mgr       *resex.Manager
	Mon       *ibmon.Monitor
	agents    []*benchex.Agent
	// keepWarmup makes RunMeasured keep the warmup's statistics: the
	// timeline figures (runTimeline) want the convergence transient.
	keepWarmup bool
}

// Build assembles the two-host testbed for a configuration.
func Build(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.Reporters <= 0 {
		cfg.Reporters = 1
	}
	if cfg.RepBuffer <= 0 {
		cfg.RepBuffer = BaseBuffer
	}
	if cfg.IntfWindow <= 0 {
		cfg.IntfWindow = 16
	}
	if cfg.IntfInterval <= 0 {
		cfg.IntfInterval = 3700 * sim.Microsecond // ~270 requests/s
	}
	tb := cluster.New(cluster.Config{Discipline: cfg.Discipline})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	s := &Scenario{TB: tb}

	if cfg.Policy != nil {
		dom0 := hostA.Dom0VCPU()
		s.Mon = ibmon.New(hostA.HV, dom0, ibmon.Config{})
		s.Mgr = resex.New(tb.Eng, hostA.HV, s.Mon, dom0, cfg.Policy, resex.Config{})
	}

	for i := 0; i < cfg.Reporters; i++ {
		app, err := tb.NewApp(fmt.Sprintf("rep%d", i), hostA, hostB,
			benchex.ServerConfig{BufferSize: cfg.RepBuffer, RecordTimeline: cfg.Timeline},
			benchex.ClientConfig{BufferSize: cfg.RepBuffer, Seed: cfg.Seed + int64(i+1), RecordTimeline: cfg.Timeline})
		if err != nil {
			return nil, err
		}
		s.Reporters = append(s.Reporters, app)
		if s.Mgr != nil {
			if _, err := s.Mgr.Manage(app.ServerVM.Dom, app.Server.SendCQ(), workload.BaseSLAUs); err != nil {
				return nil, err
			}
			s.agents = append(s.agents,
				benchex.NewAgent(app.Server, app.ServerVM.Dom.ID(), s.Mgr))
		}
	}

	if cfg.IntfBuffer > 0 {
		intf, err := tb.NewApp("intf", hostA, hostB,
			benchex.ServerConfig{
				BufferSize:        cfg.IntfBuffer,
				ProcessTime:       intfProcessTime,
				PipelineResponses: true,
				RecvSlots:         cfg.IntfWindow + 2,
			},
			benchex.ClientConfig{
				BufferSize: cfg.IntfBuffer,
				Window:     cfg.IntfWindow,
				Arrivals:   benchex.Bursty{Mean: cfg.IntfInterval},
				Seed:       cfg.Seed + 999,
			})
		if err != nil {
			return nil, err
		}
		s.Intf = intf
		if cfg.IntfCap > 0 {
			intf.ServerVM.Dom.SetCap(cfg.IntfCap)
		}
		if s.Mgr != nil {
			if _, err := s.Mgr.Manage(intf.ServerVM.Dom, intf.Server.SendCQ(), 0); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Start launches every component.
func (s *Scenario) Start() {
	for _, app := range s.Reporters {
		app.Start()
	}
	if s.Intf != nil {
		s.Intf.Start()
	}
	for _, a := range s.agents {
		a.Start()
	}
	if s.Mon != nil {
		s.Mon.Start(s.TB.Eng)
	}
	if s.Mgr != nil {
		s.Mgr.Start()
	}
}

// RunMeasured starts the scenario, runs the warmup (after which statistics
// reset, unless keepWarmup is set), then the measured duration, and shuts
// the simulation down.
func (s *Scenario) RunMeasured(o Options) {
	// The paper scenario exports its testbed and manager, not its monitor.
	stopAudit := o.observe(s.TB.Eng, &snapshot.Source{TB: s.TB, Managers: []*resex.Manager{s.Mgr}})
	s.Start()
	s.TB.Eng.RunUntil(o.Warmup)
	if !s.keepWarmup {
		for _, app := range s.Reporters {
			app.Server.ResetStats()
			app.Client.ResetStats()
		}
	}
	s.TB.Eng.RunUntil(o.Warmup + o.Duration)
	stopAudit()
	s.Shutdown()
}

// Shutdown stops all processes.
func (s *Scenario) Shutdown() {
	s.TB.Eng.Shutdown()
}

// RepStats returns the first reporting server's statistics.
func (s *Scenario) RepStats() benchex.ServerStats {
	return s.Reporters[0].Server.Stats()
}

// Result is a figure reproduction: a title, text rendering and CSV data.
type Result interface {
	Title() string
	WriteText(w io.Writer) error
	WriteCSV(w io.Writer) error
}
