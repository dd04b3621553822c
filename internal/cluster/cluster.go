// Package cluster assembles the paper's testbed out of the substrate
// packages: two (or more) physical hosts, each with a Xen hypervisor and an
// InfiniBand HCA, joined by a switch; VMs pinned one-per-PCPU; and BenchEx
// applications wired server-on-host-A / client-on-host-B, exactly like the
// evaluation setup (two Dell PowerEdge servers through a Xsigo 10 Gbps I/O
// director, guests with one VCPU each).
package cluster

import (
	"fmt"
	"sort"

	"resex/internal/benchex"
	"resex/internal/fabric"
	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/splitdriver"
	"resex/internal/xen"
)

// The fabric's fixed timing; every link carries fabric.DefaultMTU packets.
const (
	// LinkPropagation is the delay per hop.
	LinkPropagation = 100 * sim.Nanosecond
	// SwitchLatency is the forwarding delay.
	SwitchLatency = 200 * sim.Nanosecond
)

// Config parameterizes a testbed.
type Config struct {
	// Hosts, when positive, pre-builds that many hosts (node ids 1..Hosts)
	// at New time. Zero keeps the testbed empty for manual AddHost calls —
	// the original two-host assembly path.
	Hosts int
	// LinkBandwidth in bytes/second. Default 1 GB/s (8 Gbps effective
	// payload rate of the paper's DDR link after 8b/10b).
	LinkBandwidth float64
	// Discipline is the link arbitration (RoundRobin models IB virtual
	// lanes; FIFO is the head-of-line-blocking ablation).
	Discipline fabric.Discipline
	// PCPUsPerHost sizes each host. Default 8.
	PCPUsPerHost int
}

// HostOptions overrides per-host parameters at AddHostOpts time. Zero
// fields fall back to the testbed Config. The placement experiments use
// this for the client-side host, which aggregates the traffic of every
// worker and needs proportionally more link bandwidth and PCPUs.
type HostOptions struct {
	// LinkBandwidth overrides the host's up/downlink rate, bytes/second.
	LinkBandwidth float64
	// PCPUs overrides the number of physical CPUs.
	PCPUs int
}

func (c Config) withDefaults() Config {
	if c.LinkBandwidth <= 0 {
		c.LinkBandwidth = 1e9
	}
	if c.PCPUsPerHost <= 0 {
		c.PCPUsPerHost = 8
	}
	return c
}

// Host is one physical machine: hypervisor + HCA + links + the dom0
// backend half of the split device driver.
type Host struct {
	Node     int
	HV       *xen.Hypervisor
	HCA      *hca.HCA
	Uplink   *fabric.Link
	Downlink *fabric.Link
	Backend  *splitdriver.Backend
	free     []int // guest-assignable PCPU ids, ascending (PCPU 0 is dom0's)
}

// VM is a guest with one VCPU pinned to its own PCPU and a protection
// domain on the host HCA (obtained through the dom0 split-driver backend).
type VM struct {
	Host *Host
	Dom  *xen.Domain
	VCPU *xen.VCPU
	PD   *hca.PD
}

// Testbed is the assembled cluster.
type Testbed struct {
	Eng    *sim.Engine
	Switch *fabric.Switch
	cfg    Config
	hosts  map[int]*hca.HCA
	Hosts  []*Host
}

// New creates a testbed on a fresh engine, pre-building cfg.Hosts hosts
// (node ids 1..Hosts) when the count is set.
func New(cfg Config) *Testbed {
	cfg = cfg.withDefaults()
	eng := sim.New()
	tb := &Testbed{
		Eng:    eng,
		Switch: fabric.NewSwitch(eng, SwitchLatency),
		cfg:    cfg,
		hosts:  make(map[int]*hca.HCA),
	}
	for n := 1; n <= cfg.Hosts; n++ {
		tb.AddHost(n)
	}
	return tb
}

// AddHost creates a physical machine and attaches it to the switch. Node
// ids must be unique.
func (tb *Testbed) AddHost(node int) *Host {
	return tb.AddHostOpts(node, HostOptions{})
}

// AddHostOpts creates a host with per-host overrides applied on top of the
// testbed Config.
func (tb *Testbed) AddHostOpts(node int, o HostOptions) *Host {
	if _, dup := tb.hosts[node]; dup {
		panic(fmt.Sprintf("cluster: node %d already exists", node))
	}
	bw := tb.cfg.LinkBandwidth
	if o.LinkBandwidth > 0 {
		bw = o.LinkBandwidth
	}
	pcpus := tb.cfg.PCPUsPerHost
	if o.PCPUs > 0 {
		pcpus = o.PCPUs
	}
	h := &Host{
		Node: node,
		HV:   xen.New(tb.Eng, xen.Config{NumPCPUs: pcpus}),
	}
	for i := 1; i < pcpus; i++ { // PCPU 0 is dom0's
		h.free = append(h.free, i)
	}
	h.HCA = hca.New(tb.Eng, hca.Config{Node: node})
	h.HCA.SetPeerResolver(func(n int) *hca.HCA { return tb.hosts[n] })
	h.Uplink = tb.Switch.Uplink(tb.Eng, fmt.Sprintf("up%d", node), bw,
		LinkPropagation, tb.cfg.Discipline)
	h.Downlink = fabric.NewLink(tb.Eng, fmt.Sprintf("down%d", node), bw,
		LinkPropagation, tb.cfg.Discipline, h.HCA.Deliver)
	h.Downlink.SetPool(h.HCA)
	h.HCA.SetUplink(h.Uplink)
	tb.Switch.AttachNode(node, h.Downlink)
	h.Dom0VCPU() // boot dom0's VCPU with the host, ahead of any guest's
	h.Backend = splitdriver.NewBackend(h.HCA)
	tb.hosts[node] = h.HCA
	tb.Hosts = append(tb.Hosts, h)
	return h
}

// Host returns the host with the given node id, or nil.
func (tb *Testbed) Host(node int) *Host {
	for _, h := range tb.Hosts {
		if h.Node == node {
			return h
		}
	}
	return nil
}

// Dom0VCPU returns (booting it on first use) the dom0 VCPU on PCPU 0, where
// ResEx and IBMon run.
func (h *Host) Dom0VCPU() *xen.VCPU {
	d0 := h.HV.Dom0()
	if len(d0.VCPUs()) == 0 {
		return d0.AddVCPU(h.HV.PCPU(0))
	}
	return d0.VCPUs()[0]
}

// FreePCPUs returns the number of PCPUs still available for guests — the
// host's remaining VM capacity, since guests are pinned one-per-PCPU.
func (h *Host) FreePCPUs() int { return len(h.free) }

// NewVM boots a guest with 512 MB, one VCPU pinned to a dedicated PCPU, and
// a paravirtual IB connection to the host's dom0 backend — the paper's guest
// configuration. Because the PD comes from the backend, every verbs resource
// the guest creates is visible in the dom0 registry (for IBMon discovery),
// even though the data path bypasses the VMM.
func (h *Host) NewVM(name string) *VM {
	if len(h.free) == 0 {
		panic(fmt.Sprintf("cluster: host %d out of PCPUs for %q", h.Node, name))
	}
	pcpu := h.free[0]
	h.free = h.free[1:]
	dom := h.HV.CreateDomain(name, 512<<20, 0)
	vcpu := dom.AddVCPU(h.HV.PCPU(pcpu))
	return &VM{Host: h, Dom: dom, VCPU: vcpu, PD: h.Backend.Connect(dom)}
}

// RemoveVM tears a guest down and returns its PCPU to the host's free pool
// (live migration removes the source copy this way). Every QP still alive
// in the VM's protection domain is destroyed — flushing posted work, so
// in-flight traffic resolves to error completions rather than vanishing.
// The caller must already have stopped the guest's processes.
func (h *Host) RemoveVM(vm *VM) {
	if vm.Host != h {
		panic(fmt.Sprintf("cluster: VM %q does not live on host %d", vm.Dom.Name(), h.Node))
	}
	for _, qp := range append([]*hca.QP(nil), vm.PD.QPs()...) {
		vm.PD.DestroyQP(qp)
	}
	pcpu := vm.VCPU.PCPU().ID()
	h.HV.DestroyDomain(vm.Dom)
	// Keep the free list sorted so placement stays deterministic.
	at := len(h.free)
	for i, id := range h.free {
		if id > pcpu {
			at = i
			break
		}
	}
	h.free = append(h.free[:at], append([]int{pcpu}, h.free[at:]...)...)
	vm.Host = nil
}

// ShardMap block-partitions host node ids into shards contiguous groups and
// returns the host→shard ownership map. Ids are sorted first, so the map is
// a pure function of the id *set* — build order cannot leak in. Shard
// counts below 1 (or above the host count) are clamped. The sharded
// simulation (internal/simpar) uses this as its default partition; anything
// that needs a deterministic host grouping may share it.
func ShardMap(nodes []int, shards int) map[int]int {
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	n := len(sorted)
	if shards < 1 {
		shards = 1
	}
	if shards > n && n > 0 {
		shards = n
	}
	m := make(map[int]int, n)
	for i, node := range sorted {
		m[node] = i * shards / n
	}
	return m
}

// ConnectQPs wires two QPs into an RC connection (the out-of-band
// connection manager).
func ConnectQPs(a, b *hca.QP, aHost, bHost *Host) error {
	if err := a.Connect(bHost.Node, b.QPN()); err != nil {
		return err
	}
	return b.Connect(aHost.Node, a.QPN())
}

// App is one BenchEx application: a server VM and a client VM joined by a
// connected QP pair.
type App struct {
	Name     string
	ServerVM *VM
	ClientVM *VM
	Server   *benchex.Server
	Client   *benchex.Client
	// ServerQP is the server-side endpoint queue pair (e.g. for applying
	// per-flow NIC rate limits).
	ServerQP *hca.QP
}

// NewApp boots a server VM on serverHost and a client VM on clientHost,
// builds the BenchEx pair and connects them. Call Start (or start the parts
// individually) before running the engine.
func (tb *Testbed) NewApp(name string, serverHost, clientHost *Host, scfg benchex.ServerConfig, ccfg benchex.ClientConfig) (*App, error) {
	if scfg.Name == "" {
		scfg.Name = name + "-server"
	}
	if ccfg.Name == "" {
		ccfg.Name = name + "-client"
	}
	if scfg.BufferSize == 0 {
		scfg.BufferSize = ccfg.BufferSize
	}
	if ccfg.BufferSize == 0 {
		ccfg.BufferSize = scfg.BufferSize
	}
	app := &App{Name: name}
	app.ServerVM = serverHost.NewVM(name + "-server-vm")
	app.ClientVM = clientHost.NewVM(name + "-client-vm")
	app.Server = benchex.NewServer(tb.Eng, app.ServerVM.VCPU, app.ServerVM.PD, scfg)
	var err error
	app.Client, err = benchex.NewClient(tb.Eng, app.ClientVM.VCPU, app.ClientVM.PD, ccfg)
	if err != nil {
		return nil, err
	}
	sqp, err := app.Server.NewEndpoint()
	if err != nil {
		return nil, err
	}
	app.ServerQP = sqp
	if err := ConnectQPs(sqp, app.Client.Endpoint(), serverHost, clientHost); err != nil {
		return nil, err
	}
	return app, nil
}

// Start launches the server and the client.
func (a *App) Start() {
	a.Server.Start()
	a.Client.Start()
}

// Stop halts both sides.
func (a *App) Stop() {
	a.Client.Stop()
	a.Server.Stop()
}
