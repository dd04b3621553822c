// Package xen models the hypervisor substrate the paper runs on: domains
// (dom0 + guests), VCPUs pinned to PCPUs, a credit-style proportional-share
// scheduler with per-domain CPU caps, and the two dom0 facilities ResEx
// depends on — XenStat-like CPU accounting and xc_map_foreign_range-style
// memory introspection.
//
// Scheduling model. Real Xen's credit scheduler gives each domain credits
// proportional to its weight every accounting period and enforces an
// optional cap: a domain may not exceed cap% of a CPU per period even when
// the CPU is otherwise idle. We reproduce that contract: time is divided
// into cap windows (CapPeriod, 10 ms, the paper's time slice); at each window
// boundary every VCPU's budget is refilled to cap% of the window (full
// window when uncapped); the per-PCPU scheduler hands out grants of at most
// one Tick (1 ms) to the runnable VCPU with the smallest
// weight-normalized consumption. Grants are not preempted mid-flight — a
// waking VCPU waits for the current grant to expire (≤ 1 tick), which is a
// finer preemption granularity than real Xen's 10 ms ticker.
//
// The cap is the *only* actuator ResEx has over a VMM-bypass device, so the
// fidelity that matters is: a VM capped at C% gets at most C% of a PCPU per
// window, with the remainder of the window spent descheduled. That property
// is enforced exactly and covered by tests.
package xen

import (
	"fmt"

	"resex/internal/guestmem"
	"resex/internal/sim"
)

// The credit scheduler's time constants.
const (
	// CapPeriod is the window over which CPU caps are enforced (the
	// scheduler time slice of the paper).
	CapPeriod = 10 * sim.Millisecond
	// Tick is the maximum length of a single scheduling grant; it bounds
	// how stale a scheduling decision can get.
	Tick = sim.Millisecond
)

// Config parameterizes the hypervisor.
type Config struct {
	// NumPCPUs is the number of physical CPUs. Default 4.
	NumPCPUs int
}

func (c Config) withDefaults() Config {
	if c.NumPCPUs <= 0 {
		c.NumPCPUs = 4
	}
	return c
}

// DomID identifies a domain; dom0 is 0.
type DomID int

// Hypervisor is one physical machine's VMM instance.
type Hypervisor struct {
	eng     *sim.Engine
	pcpus   []*PCPU
	domains []*Domain
	nextID  DomID
}

// New creates a hypervisor with a dom0 (512 MB, weight 256) already booted.
func New(eng *sim.Engine, cfg Config) *Hypervisor {
	cfg = cfg.withDefaults()
	hv := &Hypervisor{eng: eng}
	for i := 0; i < cfg.NumPCPUs; i++ {
		hv.pcpus = append(hv.pcpus, &PCPU{hv: hv, id: i})
	}
	hv.CreateDomain("Domain-0", 512<<20, 256)
	return hv
}

// Engine returns the simulation engine.
func (hv *Hypervisor) Engine() *sim.Engine { return hv.eng }

// PCPU returns physical CPU i.
func (hv *Hypervisor) PCPU(i int) *PCPU { return hv.pcpus[i] }

// NumPCPUs returns the number of physical CPUs.
func (hv *Hypervisor) NumPCPUs() int { return len(hv.pcpus) }

// Dom0 returns the control domain.
func (hv *Hypervisor) Dom0() *Domain { return hv.domains[0] }

// Domain returns the domain with the given id, or nil.
func (hv *Hypervisor) Domain(id DomID) *Domain {
	for _, d := range hv.domains {
		if d.id == id {
			return d
		}
	}
	return nil
}

// Domains returns all domains in creation order (dom0 first).
func (hv *Hypervisor) Domains() []*Domain { return hv.domains }

// CreateDomain boots a new domain with the given memory size and scheduler
// weight. It starts uncapped with no VCPUs; attach VCPUs with AddVCPU.
func (hv *Hypervisor) CreateDomain(name string, memBytes uint64, weight int) *Domain {
	if weight <= 0 {
		weight = 256
	}
	d := &Domain{
		hv:     hv,
		id:     hv.nextID,
		name:   name,
		mem:    guestmem.NewSpace(memBytes),
		weight: weight,
	}
	hv.nextID++
	hv.domains = append(hv.domains, d)
	return d
}

// MapForeignRange maps [addr, addr+n) of the target domain's memory into the
// caller, as dom0 tools do with xc_map_foreign_range. The returned region
// aliases live guest memory: subsequent guest or device writes are visible
// through it. This is the introspection primitive IBMon is built on.
func (hv *Hypervisor) MapForeignRange(id DomID, addr guestmem.Addr, n uint64) (*guestmem.Region, error) {
	d := hv.Domain(id)
	if d == nil {
		return nil, fmt.Errorf("xen: no domain %d", id)
	}
	return guestmem.NewRegion(d.mem, addr, n), nil
}

// Domain is a virtual machine (or dom0).
type Domain struct {
	hv       *Hypervisor
	id       DomID
	name     string
	mem      *guestmem.Space
	vcpus    []*VCPU
	weight   int
	cap      int // percent of one PCPU per window; 0 = uncapped
	consumed sim.Time
	onCap    func(old, new int)
}

// ID returns the domain id.
func (d *Domain) ID() DomID { return d.id }

// Name returns the domain name.
func (d *Domain) Name() string { return d.name }

// Memory returns the domain's guest-physical memory.
func (d *Domain) Memory() *guestmem.Space { return d.mem }

// Weight returns the scheduler weight.
func (d *Domain) Weight() int { return d.weight }

// VCPUs returns the domain's virtual CPUs.
func (d *Domain) VCPUs() []*VCPU { return d.vcpus }

// CPUTime returns the cumulative CPU time consumed by all the domain's
// VCPUs. This is the XenStat counter ResEx differentiates per interval to
// obtain "CPU percent used".
func (d *Domain) CPUTime() sim.Time { return d.consumed }

// Cap returns the current CPU cap in percent (0 = uncapped).
func (d *Domain) Cap() int { return d.cap }

// SetCap sets the CPU cap in percent of one PCPU per window; 0 removes the
// cap. Values are clamped to [0, 100]. Mid-window, the remaining budget is
// adjusted immediately (never below what was already consumed).
func (d *Domain) SetCap(pct int) {
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	old := d.cap
	d.cap = pct
	if d.onCap != nil && old != pct {
		d.onCap(old, pct)
	}
	for _, v := range d.vcpus {
		v.refresh(d.hv.eng.Now() / CapPeriod)
		v.budget = v.capShare() - v.windowUsed
		if v.budget < 0 {
			v.budget = 0
		}
		v.pcpu.maybeReschedule()
	}
}

// DestroyDomain tears a domain down: its VCPUs are detached from their
// PCPUs (any active grant is revoked) and the domain is removed from the
// hypervisor's registry, as xl destroy does. The caller must have stopped
// every guest process still blocked on the domain's VCPUs — a thread parked
// in Use/SpinWait on a detached VCPU would never be scheduled again.
// Destroying dom0 is not allowed.
func (hv *Hypervisor) DestroyDomain(d *Domain) {
	if d == hv.domains[0] {
		panic("xen: cannot destroy dom0")
	}
	for _, v := range d.vcpus {
		v.detach()
	}
	for i, dd := range hv.domains {
		if dd == d {
			hv.domains = append(hv.domains[:i], hv.domains[i+1:]...)
			break
		}
	}
}

// detach unpins the VCPU from its PCPU, revoking an in-flight grant, so the
// PCPU can be reassigned (live migration frees the source host's PCPU).
func (v *VCPU) detach() {
	c := v.pcpu
	if c.current == v {
		c.grantTimer.Stop()
		v.running = false
		c.current = nil
	}
	for i, w := range c.vcpus {
		if w == v {
			c.vcpus = append(c.vcpus[:i], c.vcpus[i+1:]...)
			break
		}
	}
	c.maybeReschedule()
}

// AddVCPU creates a VCPU for the domain pinned to the given PCPU.
func (d *Domain) AddVCPU(pcpu *PCPU) *VCPU {
	v := &VCPU{
		dom:      d,
		pcpu:     pcpu,
		id:       len(d.vcpus),
		grantSig: sim.NewSignal(d.hv.eng),
		mutexSig: sim.NewSignal(d.hv.eng),
	}
	v.budget = v.capShare()
	v.onYieldCheck = v.yieldCheck
	d.vcpus = append(d.vcpus, v)
	pcpu.vcpus = append(pcpu.vcpus, v)
	return v
}

// Hypervisor returns the owning hypervisor.
func (d *Domain) Hypervisor() *Hypervisor { return d.hv }

// ObserveCap registers fn to run synchronously whenever SetCap changes the
// domain's effective cap, with the old and new percentages. At most one
// observer is supported (last registration wins); pass nil to clear. The
// invariant auditor uses this to track the loosest cap in force across a
// sampling span, so a mid-window cap change never reads as a violation.
func (d *Domain) ObserveCap(fn func(old, new int)) { d.onCap = fn }
