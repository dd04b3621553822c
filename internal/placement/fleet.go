package placement

import (
	"fmt"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/faults"
	"resex/internal/resex"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/workload"
)

// IntfThresholdPct is the epoch IntfPercent above which a latency-sensitive
// VM counts as breached (feeds the rebalancer's patience counter).
const IntfThresholdPct = 5.0

// Config parameterizes a fleet. The embedded worker-rig config sizes the
// hosts; a fleet's defaults differ from a traffic engine's in three places:
// Hosts 2, ClientPCPUs 64 (one client VM per workload) and Policy
// NewIOShares — every fleet host is managed.
type Config struct {
	workload.Config
	// Strategy decides placements. Default schedshard.NewInterferencePipeline.
	Strategy Strategy
	// Seed drives the fleet RNG (random strategy, workload shuffling).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = 2
	}
	if c.ClientPCPUs <= 0 {
		c.ClientPCPUs = 64
	}
	if c.Policy == nil {
		c.Policy = func() resex.Policy { return resex.NewIOShares() }
	}
	if c.Strategy == nil {
		c.Strategy = PipelineStrategy{Label: "intf-aware", P: schedshard.NewInterferencePipeline()}
	}
	return c
}

// Workload describes one application to place: a BenchEx server VM plus its
// client VM on the fleet's client host.
type Workload struct {
	Name             string
	BufferSize       int
	LatencySensitive bool
	// SLAUs is the latency SLA (µs) handed to ResEx for latency-sensitive
	// workloads; bulk workloads leave it zero and let ResEx learn.
	SLAUs float64
	// Client shape: Window outstanding requests, paced open loop by
	// Arrivals (nil = closed loop).
	Window   int
	Arrivals benchex.ArrivalProcess
	// ProcessTime overrides the server's per-request compute.
	ProcessTime sim.Time
	// PipelineResponses makes the server fire-and-forget (interferers).
	PipelineResponses bool
	// Seed drives the client's request generator.
	Seed int64
}

// Placement is one workload's current binding.
type Placement struct {
	Spec     schedshard.Spec
	Workload Workload
	App      *cluster.App
	Agent    *benchex.Agent
	// HostIdx indexes Fleet.Workers (not node id).
	HostIdx int
	// Migrations counts how many times the server moved.
	Migrations int
	// History holds the stats of servers retired by migration, so measures
	// span the workload's whole life.
	History []benchex.ServerStats

	lastIntf   float64 // IntfPercent from the newest epoch summary
	lastCap    float64 // CPU cap from the newest epoch summary
	intfEpochs int     // consecutive epochs above the breach threshold

	migFailures int      // consecutive aborted migrations of this placement
	retryAt     sim.Time // rebalancer will not retry moving it before this
}

// MigrationFailures counts consecutive aborted migrations of this placement
// (reset on the next success).
func (pl *Placement) MigrationFailures() int { return pl.migFailures }

// Records merges the timeline of every server incarnation, in order.
func (pl *Placement) Records() []benchex.RequestRecord {
	var out []benchex.RequestRecord
	for _, h := range pl.History {
		out = append(out, h.Timeline...)
	}
	return append(out, pl.App.Server.Stats().Timeline...)
}

// Fleet is an N-worker-host cluster with one ResEx manager and IBMon
// monitor per host, a shared client host, and a placement strategy.
type Fleet struct {
	*workload.Rig
	Log *EventLog

	cfg        Config
	rng        *sim.Rand
	store      *schedshard.Store
	placeSeq   uint64 // canonical bind keys for store commits
	placements []*Placement
	faults     *faults.Injector // nil = no injection wired
}

// NewFleet assembles the worker rig (one monitor+manager per worker, and
// the client host), then subscribes the fleet to every manager's epoch
// summaries.
func NewFleet(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	rig := workload.NewRig(cfg.Config)
	cfg.Config = rig.Config()
	f := &Fleet{
		Rig:   rig,
		Log:   &EventLog{},
		cfg:   cfg,
		rng:   sim.NewRand(cfg.Seed),
		store: schedshard.NewStore(),
	}
	for i, mgr := range f.Mgrs {
		mgr.ObserveEpoch(func(es resex.EpochSummary) { f.onEpoch(i, es) })
	}
	return f
}

// Config returns the effective fleet configuration.
func (f *Fleet) Config() Config { return f.cfg }

// WireFaults registers every worker host's links, HCA and monitor with the
// injector and makes the fleet consult it for migration pre-copy failure
// windows. Call before arming any schedule that targets the fleet's nodes.
func (f *Fleet) WireFaults(inj *faults.Injector) {
	for i, h := range f.Workers {
		inj.AttachHost(faults.HostPorts{
			Node: h.Node, Uplink: h.Uplink, Downlink: h.Downlink,
			HCA: h.HCA, Mon: f.Mons[i],
		})
	}
	f.faults = inj
}

// Placements returns every placed workload in placement order.
func (f *Fleet) Placements() []*Placement { return f.placements }

// EpochDuration is one ResEx epoch of the fleet's managers.
func (f *Fleet) EpochDuration() sim.Time {
	return resex.Interval * sim.Time(f.Mgrs[0].Config().IntervalsPerEpoch)
}

// onEpoch folds one host's epoch summary into the placement records: the
// rebalancer's breach counters advance here.
func (f *Fleet) onEpoch(hostIdx int, es resex.EpochSummary) {
	for _, pl := range f.placements {
		if pl.HostIdx != hostIdx || pl.App.ServerVM == nil {
			continue
		}
		s := es.VM(pl.App.ServerVM.Dom.ID())
		if s == nil {
			continue
		}
		pl.lastIntf = s.IntfPercent
		pl.lastCap = s.Cap
		if pl.Spec.LatencySensitive && s.IntfPercent >= IntfThresholdPct {
			pl.intfEpochs++
		} else {
			pl.intfEpochs = 0
		}
	}
}

// Store returns the fleet's cluster-state store: the live view the fleet
// publishes (refreshed before every placement decision) and the commit
// point every bind goes through. The multi-shard scheduler and resextop
// read the same store.
func (f *Fleet) Store() *schedshard.Store { return f.store }

// refresh rebuilds the scheduler's view of every worker host from live
// fleet state and publishes it as the store's next snapshot version.
func (f *Fleet) refresh() *schedshard.Snapshot {
	return f.store.Publish(f.buildView())
}

// buildView constructs the per-host state the published snapshot holds.
func (f *Fleet) buildView() []*schedshard.HostInfo {
	out := make([]*schedshard.HostInfo, 0, len(f.Workers))
	for i, h := range f.Workers {
		hi := &schedshard.HostInfo{
			Node:            h.Node,
			FreePCPUs:       h.FreePCPUs(),
			TotalPCPUs:      workload.PCPUsPerHost - 1, // dom0 owns PCPU 0
			LinkBytesPerSec: f.cfg.WorkerLink(i),
			ResoHeadroom:    1,
		}
		for _, pl := range f.placements {
			if pl.HostIdx != i {
				continue
			}
			vi := schedshard.VMInfo{Spec: pl.Spec, IntfPercent: pl.lastIntf, CapPct: pl.lastCap}
			if prof, ok := f.Mons[i].ProfileOf(pl.App.ServerVM.Dom.ID()); ok {
				vi.MTUsPerSec = prof.MTUsPerSec
				vi.BytesPerSec = prof.BytesPerSec
				vi.BufferSize = prof.BufferSize
			}
			hi.IOCommitted += vi.BytesPerSec / f.cfg.WorkerLink(i)
			hi.VMs = append(hi.VMs, vi)
		}
		if vms := f.Mgrs[i].VMs(); len(vms) > 0 {
			sum := 0.0
			for _, vm := range vms {
				sum += vm.Account.Fraction()
			}
			hi.ResoHeadroom = sum / float64(len(vms))
		}
		out = append(out, hi)
	}
	return out
}

// whatIf refreshes the store and derives the rebalancer's scoring view: the
// current snapshot with one placement's VM elided, as if it were not
// running — the rebalancer scores "where should this VM be?" without the
// VM's own footprint biasing its current host.
func (f *Fleet) whatIf(skip *Placement) []*schedshard.HostInfo {
	return f.refresh().WithoutVM(f.Workers[skip.HostIdx].Node, skip.Spec.Name)
}

// workerIdx maps a node id back to a Workers index.
func (f *Fleet) workerIdx(node int) int {
	for i, h := range f.Workers {
		if h.Node == node {
			return i
		}
	}
	panic(fmt.Sprintf("placement: unknown worker node %d", node))
}

// Place runs the strategy over the store's freshly published snapshot,
// commits the bind through the store (the same commit-time conflict check
// the multi-shard scheduler uses; serial placement against a fresh view
// cannot conflict, so a conflict here is a hard error), boots the workload
// on the chosen host, puts the server VM under the host's ResEx manager and
// starts server, client and monitoring agent.
func (f *Fleet) Place(w Workload) (*Placement, error) {
	spec := schedshard.Spec{Name: w.Name, LatencySensitive: w.LatencySensitive, BufferSize: w.BufferSize}
	host, err := f.cfg.Strategy.Pick(f.refresh().Hosts, spec, f.rng)
	if err != nil {
		return nil, err
	}
	f.placeSeq++
	bind := schedshard.Bind{Key: f.placeSeq, Node: host.Node, VM: schedshard.VMInfo{Spec: spec}}
	if _, conflicted := f.store.CommitRound([]schedshard.Bind{bind}); len(conflicted) != 0 {
		return nil, fmt.Errorf("placement: bind of %q onto node%d conflicted at commit", w.Name, host.Node)
	}
	idx := f.workerIdx(host.Node)
	h := f.Workers[idx]

	scfg := benchex.ServerConfig{
		Name:              w.Name + "-server",
		BufferSize:        w.BufferSize,
		ProcessTime:       w.ProcessTime,
		PipelineResponses: w.PipelineResponses,
		RecordTimeline:    w.LatencySensitive,
	}
	ccfg := benchex.ClientConfig{
		Name:       w.Name + "-client",
		BufferSize: w.BufferSize,
		Window:     w.Window,
		Arrivals:   w.Arrivals,
		Seed:       w.Seed,
	}
	app, err := f.TB.NewApp(w.Name, h, f.Client, scfg, ccfg)
	if err != nil {
		return nil, err
	}
	pl := &Placement{Spec: spec, Workload: w, App: app, HostIdx: idx}
	if err := f.manage(pl); err != nil {
		return nil, err
	}
	app.Start()
	pl.Agent.Start()
	f.placements = append(f.placements, pl)
	f.Log.Add(f.TB.Eng.Now(), "place", "%s -> node%d (%s)", w.Name, host.Node, f.cfg.Strategy.Name())
	return pl, nil
}

// manage registers the placement's current server VM with its host's ResEx
// manager and creates a fresh monitoring agent (not yet started).
func (f *Fleet) manage(pl *Placement) error {
	h := f.Workers[pl.HostIdx]
	dom := pl.App.ServerVM.Dom
	_, err := f.Mgrs[pl.HostIdx].ManageCQs(dom, h.Backend.CQsOf(dom.ID()), pl.Workload.SLAUs)
	if err != nil {
		return err
	}
	pl.Agent = benchex.NewAgent(pl.App.Server, dom.ID(), f.Mgrs[pl.HostIdx])
	return nil
}
