package placement

import (
	"fmt"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/exchange"
	"resex/internal/faults"
	"resex/internal/ibmon"
	"resex/internal/resex"
	"resex/internal/schedshard"
	"resex/internal/sim"
)

// Config parameterizes a fleet.
type Config struct {
	// Hosts is the number of worker hosts (nodes 1..Hosts). One extra
	// client host (node Hosts+1) is added to run every workload's client —
	// the paper's client-machine/server-machine split scaled out.
	Hosts int
	// PCPUsPerHost sizes the workers. Default 8 (7 guest slots + dom0).
	PCPUsPerHost int
	// ClientPCPUs sizes the client host; it must hold one VM per workload.
	// Default 64.
	ClientPCPUs int
	// LinkBandwidth is the per-worker uplink, bytes/second. The client
	// host's link is scaled by Hosts so it never becomes the bottleneck.
	// Default 1 GB/s.
	LinkBandwidth float64
	// LinkBandwidths optionally overrides individual workers' uplinks
	// (indexed by worker, bytes/second; zero entries and workers past the
	// end fall back to LinkBandwidth). This is how heterogeneous fleets —
	// fast and slow fabric generations side by side — are built.
	LinkBandwidths []float64
	// IntervalsPerEpoch shortens the ResEx epoch so fleets converge inside
	// short simulations. Default 250 (250 ms epochs).
	IntervalsPerEpoch int
	// Policy builds the per-host pricing policy. Default NewIOShares.
	Policy func() resex.Policy
	// Strategy decides placements. Default schedshard.NewInterferencePipeline.
	Strategy Strategy
	// IntfThresholdPct is the epoch IntfPercent above which a
	// latency-sensitive VM counts as breached (feeds the rebalancer's
	// patience counter). Default 5.
	IntfThresholdPct float64
	// Seed drives the fleet RNG (random strategy, workload shuffling).
	Seed int64
	// ConfidenceGate is handed to every host's ResEx manager: when
	// positive, caps are never tightened on stale IBMon evidence (see
	// resex.Config.ConfidenceGate). 0 = naive.
	ConfidenceGate float64
	// QuarantineBlackouts, when true, marks hosts whose monitor is blacked
	// out as quarantined in scheduler snapshots: no new VM binds there and
	// the rebalancer will not pick them as migration targets.
	QuarantineBlackouts bool
}

func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = 2
	}
	if c.PCPUsPerHost <= 0 {
		c.PCPUsPerHost = 8
	}
	if c.ClientPCPUs <= 0 {
		c.ClientPCPUs = 64
	}
	if c.LinkBandwidth <= 0 {
		c.LinkBandwidth = 1e9
	}
	if c.IntervalsPerEpoch <= 0 {
		c.IntervalsPerEpoch = 250
	}
	if c.Policy == nil {
		c.Policy = func() resex.Policy { return resex.NewIOShares() }
	}
	if c.Strategy == nil {
		c.Strategy = PipelineStrategy{Label: "intf-aware", P: schedshard.NewInterferencePipeline()}
	}
	if c.IntfThresholdPct <= 0 {
		c.IntfThresholdPct = 5
	}
	return c
}

// workerLink returns worker i's uplink bandwidth, bytes/second.
func (c Config) workerLink(i int) float64 {
	if i < len(c.LinkBandwidths) && c.LinkBandwidths[i] > 0 {
		return c.LinkBandwidths[i]
	}
	return c.LinkBandwidth
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
	// Client shape: Window outstanding requests, open-loop Interval (0 =
	// closed loop), hyperexponential interarrivals when Bursty.
	Window   int
	Interval sim.Time
	Bursty   bool
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
	TB      *cluster.Testbed
	Client  *cluster.Host
	Workers []*cluster.Host
	Mons    []*ibmon.Monitor
	Mgrs    []*resex.Manager
	Log     *EventLog

	cfg        Config
	rng        *sim.Rand
	store      *schedshard.Store
	market     *exchange.Market
	placeSeq   uint64 // canonical bind keys for store commits
	placements []*Placement
	faults     *faults.Injector // nil = no injection wired
}

// NewFleet assembles the testbed, one monitor+manager per worker, and the
// client host.
func NewFleet(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	tb := cluster.New(cluster.Config{
		LinkBandwidth: cfg.LinkBandwidth,
		PCPUsPerHost:  cfg.PCPUsPerHost,
	})
	clientBW := 0.0
	for n := 1; n <= cfg.Hosts; n++ {
		tb.AddHostOpts(n, cluster.HostOptions{LinkBandwidth: cfg.workerLink(n - 1)})
		clientBW += cfg.workerLink(n - 1)
	}
	f := &Fleet{
		TB: tb,
		Client: tb.AddHostOpts(cfg.Hosts+1, cluster.HostOptions{
			LinkBandwidth: clientBW,
			PCPUs:         cfg.ClientPCPUs,
		}),
		Log:    &EventLog{},
		cfg:    cfg,
		rng:    sim.NewRand(cfg.Seed),
		store:  schedshard.NewStore(),
		market: exchange.NewMarket(),
	}
	for n := 1; n <= cfg.Hosts; n++ {
		h := tb.Host(n)
		f.Workers = append(f.Workers, h)
		mon := ibmon.New(h.HV, h.Dom0VCPU(), ibmon.Config{MTU: tb.Config().MTU})
		mon.Start(tb.Eng)
		mgr := resex.New(tb.Eng, h.HV, mon, h.Dom0VCPU(), cfg.Policy(),
			resex.Config{
				IntervalsPerEpoch: cfg.IntervalsPerEpoch,
				ConfidenceGate:    cfg.ConfidenceGate,
			})
		mgr.Start()
		idx := n - 1
		mgr.ObserveEpoch(func(es resex.EpochSummary) { f.onEpoch(idx, es) })
		if bp, ok := mgr.Policy().(exchange.BookKeeper); ok {
			f.market.Add(n, bp.Book())
		}
		f.Mons = append(f.Mons, mon)
		f.Mgrs = append(f.Mgrs, mgr)
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

// HostHealth classifies one worker host (by Workers index) from its
// monitor's observability: quarantined when blacked out and quarantining is
// enabled, degraded when the monitor is blind or low-confidence for any
// target, OK otherwise.
func (f *Fleet) HostHealth(i int) schedshard.HostHealth {
	switch f.Mons[i].Health() {
	case ibmon.HealthBlackout:
		if f.cfg.QuarantineBlackouts {
			return schedshard.HealthQuarantined
		}
		return schedshard.HealthDegraded
	case ibmon.HealthDegraded:
		return schedshard.HealthDegraded
	default:
		return schedshard.HealthOK
	}
}

// Placements returns every placed workload in placement order.
func (f *Fleet) Placements() []*Placement { return f.placements }

// EpochDuration is one ResEx epoch of the fleet's managers.
func (f *Fleet) EpochDuration() sim.Time {
	c := f.Mgrs[0].Config()
	return c.Interval * sim.Time(c.IntervalsPerEpoch)
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
		if pl.Spec.LatencySensitive && s.IntfPercent >= f.cfg.IntfThresholdPct {
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

// Market returns the fleet-level exchange market: one listing per worker
// whose policy keeps a trade book (empty on non-pricing fleets). Placement
// views read per-host quotes from it and the rebalancer reads gradients.
func (f *Fleet) Market() *exchange.Market { return f.market }

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
			TotalPCPUs:      f.cfg.PCPUsPerHost - 1, // dom0 owns PCPU 0
			LinkBytesPerSec: f.cfg.workerLink(i),
			ResoHeadroom:    1,
			Health:          f.HostHealth(i),
		}
		if bk := f.market.BookOf(h.Node); bk != nil {
			for d := exchange.Dim(0); d < exchange.NumDims; d++ {
				hi.Prices[d] = bk.Board().Price(d)
			}
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
			hi.IOCommitted += vi.BytesPerSec / f.cfg.workerLink(i)
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
	host, _, err := f.cfg.Strategy.Pick(f.refresh().Hosts, spec, f.rng)
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
		Name:           w.Name + "-client",
		BufferSize:     w.BufferSize,
		Window:         w.Window,
		Interval:       w.Interval,
		BurstyArrivals: w.Bursty,
		Seed:           w.Seed,
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
	pl.Agent = benchex.NewAgent(pl.App.Server, dom.ID(), f.Mgrs[pl.HostIdx], benchex.AgentConfig{})
	return nil
}
