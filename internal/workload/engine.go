package workload

import (
	"fmt"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/resex"
	"resex/internal/sim"
)

// PCPUsPerHost sizes the workers: 7 guest slots + dom0.
const PCPUsPerHost = 8

// Config parameterizes a worker rig (and the traffic engine on it).
type Config struct {
	// Hosts is the number of worker (server) hosts, nodes 1..Hosts. One
	// extra client host (node Hosts+1) runs every tenant's client with a
	// link scaled by Hosts so the client side never bottlenecks. Default 1.
	Hosts int
	// ClientPCPUs sizes the client host; it must hold one VM per tenant.
	// Default 32.
	ClientPCPUs int
	// LinkBandwidth is the per-worker uplink, bytes/second. Default 1 GB/s.
	LinkBandwidth float64
	// LinkBandwidths optionally overrides individual workers' uplinks
	// (indexed by worker, bytes/second; zero entries and workers past the
	// end fall back to LinkBandwidth) — heterogeneous fleets with fast and
	// slow fabric generations side by side.
	LinkBandwidths []float64
	// Policy builds the per-host ResEx pricing policy. Nil leaves the
	// hosts unmanaged — no monitor, no manager, raw interference.
	Policy func() resex.Policy
	// IntervalsPerEpoch shortens the ResEx epoch so managed runs converge
	// inside short simulations. Default 250 (250 ms epochs).
	IntervalsPerEpoch int
	// ConfidenceGate is handed to every host's ResEx manager: when
	// positive, caps are never tightened on stale IBMon evidence (see
	// resex.Config.ConfidenceGate). 0 = naive.
	ConfidenceGate float64
}

func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = 1
	}
	if c.ClientPCPUs <= 0 {
		c.ClientPCPUs = 32
	}
	if c.LinkBandwidth <= 0 {
		c.LinkBandwidth = 1e9
	}
	if c.IntervalsPerEpoch <= 0 {
		c.IntervalsPerEpoch = 250
	}
	return c
}

// WorkerLink returns worker i's uplink bandwidth, bytes/second.
func (c Config) WorkerLink(i int) float64 {
	if i < len(c.LinkBandwidths) && c.LinkBandwidths[i] > 0 {
		return c.LinkBandwidths[i]
	}
	return c.LinkBandwidth
}

// Rig is the multi-host testbed the traffic engine and the placement fleet
// both run on: worker hosts on nodes 1..Hosts, each (when a policy is
// configured) under its own IBMon monitor and ResEx manager, plus one
// shared client host on node Hosts+1.
type Rig struct {
	TB      *cluster.Testbed
	Client  *cluster.Host
	Workers []*cluster.Host
	Mons    []*ibmon.Monitor
	Mgrs    []*resex.Manager

	cfg Config
}

// NewRig assembles the testbed, the client host and, when a policy is
// configured, one monitor and manager per worker, already started.
func NewRig(cfg Config) *Rig {
	cfg = cfg.withDefaults()
	tb := cluster.New(cluster.Config{
		LinkBandwidth: cfg.LinkBandwidth,
		PCPUsPerHost:  PCPUsPerHost,
	})
	clientBW := 0.0
	for n := 1; n <= cfg.Hosts; n++ {
		tb.AddHostOpts(n, cluster.HostOptions{LinkBandwidth: cfg.WorkerLink(n - 1)})
		clientBW += cfg.WorkerLink(n - 1)
	}
	r := &Rig{
		TB: tb,
		Client: tb.AddHostOpts(cfg.Hosts+1, cluster.HostOptions{
			LinkBandwidth: clientBW,
			PCPUs:         cfg.ClientPCPUs,
		}),
		cfg: cfg,
	}
	for n := 1; n <= cfg.Hosts; n++ {
		h := tb.Host(n)
		r.Workers = append(r.Workers, h)
		if cfg.Policy == nil {
			continue
		}
		mon := ibmon.New(h.HV, h.Dom0VCPU(), ibmon.Config{})
		mon.Start(tb.Eng)
		mgr := resex.New(tb.Eng, h.HV, mon, h.Dom0VCPU(), cfg.Policy(), resex.Config{
			IntervalsPerEpoch: cfg.IntervalsPerEpoch,
			ConfidenceGate:    cfg.ConfidenceGate,
		})
		mgr.Start()
		r.Mons = append(r.Mons, mon)
		r.Mgrs = append(r.Mgrs, mgr)
	}
	return r
}

// Config returns the effective configuration.
func (r *Rig) Config() Config { return r.cfg }

// Engine is the multi-tenant traffic engine: a worker rig and the tenants
// driving traffic between its workers and its client host.
type Engine struct {
	*Rig

	tenants []*Tenant
	servers []*benchex.Server
	agents  []*benchex.Agent
	started bool
}

// New assembles the rig (see NewRig) for a traffic engine with no tenants
// yet.
func New(cfg Config) *Engine {
	return &Engine{Rig: NewRig(cfg)}
}

// Tenants returns every tenant in AddTenant order.
func (e *Engine) Tenants() []*Tenant { return e.tenants }

// AddTenant boots one tenant: a server VM on a worker host (round-robin by
// tenant index), a client VM on the client host, the connected QP pair, and
// — on managed hosts — registration with the host's ResEx manager plus an
// in-VM latency agent. If the engine is already running the tenant starts
// immediately.
func (e *Engine) AddTenant(spec TenantSpec) (*Tenant, error) {
	spec = spec.withDefaults()
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("tenant%d", len(e.tenants))
	}
	if spec.Arrivals != nil && !(spec.Arrivals.RatePerSec() > 0) {
		return nil, fmt.Errorf("workload: tenant %q arrival process %T has non-positive rate", spec.Name, spec.Arrivals)
	}

	hostIdx := len(e.tenants) % len(e.Workers)
	h := e.Workers[hostIdx]
	serverVM := h.NewVM(spec.Name + "-server-vm")
	server := benchex.NewServer(e.TB.Eng, serverVM.VCPU, serverVM.PD, benchex.ServerConfig{
		Name:              spec.Name + "-server",
		BufferSize:        spec.BufferSize,
		ProcessTime:       spec.ProcessTime,
		PipelineResponses: spec.PipelineServer,
		RecvSlots:         spec.Window + 2,
		// Open-loop tenants leave real idle gaps; without the idle-aware
		// clock those gaps read as service latency and the in-VM agent
		// reports phantom SLA violations at light load. Closed-loop tenants
		// keep the paper's original accounting: with a request always in
		// flight, PTime spans the client turnaround and request transit, so
		// fabric congestion in either direction reaches the agent's report —
		// the signal ResEx's detection was designed around.
		IdleAwareService: spec.Arrivals != nil,
	})

	clientVM := e.Client.NewVM(spec.Name + "-client-vm")
	t, err := newTenant(e.TB.Eng, clientVM.VCPU, clientVM.PD, spec)
	if err != nil {
		return nil, err
	}
	t.HostIdx = hostIdx

	sqp, err := server.NewEndpoint()
	if err != nil {
		return nil, err
	}
	if err := cluster.ConnectQPs(sqp, t.Endpoint(), h, e.Client); err != nil {
		return nil, err
	}

	var agent *benchex.Agent
	if len(e.Mgrs) > 0 {
		dom := serverVM.Dom
		mvm, err := e.Mgrs[hostIdx].ManageCQs(dom, h.Backend.CQsOf(dom.ID()), spec.SLAUs)
		if err != nil {
			return nil, err
		}
		if spec.Share > 1 {
			e.Mgrs[hostIdx].SetShare(mvm, spec.Share)
		}
		if spec.MemBytesPerReq > 0 {
			// Memory-bandwidth meter: cumulative 4 KiB units derived from the
			// server's monotone served-request counter (integer arithmetic, so
			// per-interval deltas carry no truncation drift).
			srv := server
			per := int64(spec.MemBytesPerReq)
			e.Mgrs[hostIdx].SetMemMeter(mvm, func() int64 {
				return srv.Stats().Served * per / 4096
			})
		}
		// Only SLA-backed tenants run the in-VM reporting agent. A tenant
		// without an SLA reference (bulk movers) is still managed — its MTU
		// rate is visible to attribution and its VCPU can be capped — but it
		// never reports latency, so its own queueing (an MMPP burst draining
		// through a 2 ms/request server) can't read as interference and get a
		// co-tenant throttled. Same asymmetry as the paper's scenario: victims
		// are self-declared via reports, culprits are found by attribution.
		if spec.SLAUs > 0 {
			agent = benchex.NewAgent(server, dom.ID(), e.Mgrs[hostIdx])
			e.agents = append(e.agents, agent)
		}
	}

	e.tenants = append(e.tenants, t)
	e.servers = append(e.servers, server)
	if e.started {
		server.Start()
		if agent != nil {
			agent.Start()
		}
		t.start()
	}
	return t, nil
}

// StopTenant halts the named tenant's traffic mid-run: arrivals cease,
// nothing further is issued, and in-flight requests drain through the normal
// completion path. The tenant's VMs and QPs stay allocated — a departed but
// still-provisioned tenant — which keeps removal deterministic and leaves
// its cumulative statistics readable.
func (e *Engine) StopTenant(name string) error {
	for _, t := range e.tenants {
		if t.Spec.Name == name {
			if !t.running {
				return fmt.Errorf("workload: tenant %q is already stopped", name)
			}
			t.stop()
			return nil
		}
	}
	return fmt.Errorf("workload: no tenant %q", name)
}

// Start launches every server, agent and tenant driver.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	for _, s := range e.servers {
		s.Start()
	}
	for _, a := range e.agents {
		a.Start()
	}
	for _, t := range e.tenants {
		t.start()
	}
}

// RunMeasured starts the engine, runs the warmup, resets every tenant's
// measurements, runs the measured duration, and shuts the simulation down.
func (e *Engine) RunMeasured(warmup, duration sim.Time) {
	e.Start()
	e.TB.Eng.RunUntil(e.TB.Eng.Now() + warmup)
	for _, t := range e.tenants {
		t.ResetStats()
	}
	e.TB.Eng.RunUntil(e.TB.Eng.Now() + duration)
	e.Shutdown()
}

// Shutdown stops every tenant and kills all simulation processes.
func (e *Engine) Shutdown() {
	for _, t := range e.tenants {
		t.stop()
	}
	e.TB.Eng.Shutdown()
}
