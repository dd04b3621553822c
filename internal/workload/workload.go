// Package workload is the multi-tenant traffic engine: the layer that turns
// the repository's microbenchmark substrate into realistic offered load.
//
// Each tenant is one application — a BenchEx server VM on a worker host and
// a custom client VM on the shared client host — whose requests travel the
// full simulated path: the client's VCPU builds and posts the request on its
// VM's HCA, the fabric carries it through the switch onto the server host's
// downlink, the server VM's CPU-gated serve loop processes it, and the
// response returns through the client's completion queue. ResEx caps on the
// server VM, link congestion, and Xen scheduling therefore all shape the
// end-to-end latency a tenant measures — which is the point: policies like
// FreeMarket and IOShares only differentiate once arrivals press against
// capacity, and this engine is what generates that pressure.
//
// Tenants are driven either open loop — a benchex.ArrivalProcess (Poisson or
// MMPP bursts) generates arrivals regardless of how the system keeps up, the
// litmus test for saturation behavior — or closed loop, where Concurrency
// simulated users each wait for their response before the next request.
// Open-loop latencies are measured from *arrival*,
// not from post: a request that sat in the client queue because the window
// was full carries that wait in its latency, so saturation produces the
// textbook hockey stick instead of being hidden by the issue window
// (coordinated omission).
//
// Per-tenant SLOSpecs (p99 targets) are scored as time-weighted
// attainment over fixed evaluation windows, and a queue cap can shed
// arrivals before they enter the queue. Unlike benchex.Client,
// which busy-polls its completion queue, the tenant driver is event-driven
// (completions wake it through the CQ signal), so one client VCPU can pace
// thousands of arrivals per second without burning its host.
package workload

import (
	"resex/internal/benchex"
	"resex/internal/sim"
)

// ClosedLoop shapes a closed-loop tenant: a fixed population of simulated
// users, each issuing one request, waiting for the response, and issuing
// the next one back to back.
type ClosedLoop struct {
	// Concurrency is the user population (max requests a closed-loop
	// tenant can have admitted at once). Default 1.
	Concurrency int
}

// InterruptCost is tenant client CPU per reaped completion — the
// event-driven wakeup price. Request builds cost benchex.PrepTime, jittered
// by ±benchex.PrepJitter against phase-locking (benchex.Conn.Prep), as a
// BenchEx client's do.
const InterruptCost = 2 * sim.Microsecond

// TenantSpec declares one tenant of the traffic engine.
type TenantSpec struct {
	// Name labels the tenant everywhere (VM names, reports, resextop).
	Name string
	// BufferSize is the request/response size in bytes. Default 64 KB.
	BufferSize int
	// Arrivals, when set, drives the tenant open loop: the process
	// generates arrival times regardless of completions. Nil selects the
	// closed loop configured by Closed.
	Arrivals benchex.ArrivalProcess
	// Closed configures the closed loop when Arrivals is nil.
	Closed ClosedLoop
	// Window bounds posted-but-uncompleted requests (the RDMA pipeline
	// depth). Open-loop default 8; closed-loop default Concurrency.
	// Arrivals beyond the window queue in the client — where their wait
	// still counts toward measured latency.
	Window int
	// SLO declares the tenant's latency objectives and evaluation window.
	SLO SLOSpec
	// QueueCap sheds an open-loop arrival when this many admitted arrivals
	// already wait to post: the classic bounded-queue load shedder, which
	// under sustained overload turns unbounded queueing delay into a shed
	// rate. Shed arrivals are counted and never issued. 0 (the default)
	// admits every arrival. Closed-loop arrivals bypass the cap — shedding
	// a closed-loop user would silently shrink the population forever.
	QueueCap int
	// SLAUs is the latency reference (µs) handed to the host's ResEx
	// manager; 0 lets the policy learn a baseline (bulk tenants).
	SLAUs float64
	// Share is the tenant's Reso allocation weight on its host's ResEx
	// manager (entitlement priority across every pricing family). Default 1.
	Share int
	// ProcessTime overrides the server's per-request CPU; 0 scales with
	// BufferSize as in benchex.
	ProcessTime sim.Time
	// PipelineServer makes the server fire-and-forget its responses (bulk
	// movers that keep the link saturated).
	PipelineServer bool
	// MemBytesPerReq is the server-side memory traffic each request incurs,
	// in bytes — the mixed-criticality knob: on a managed host it feeds the
	// ResEx memory-bandwidth meter (resex.Manager.SetMemMeter), so the
	// tenant's DimMemBW spend is priced and traded on the host's exchange
	// book. 0 (the default) leaves the tenant unmetered and the third
	// dimension untouched.
	MemBytesPerReq int
	// Seed drives the tenant's private RNG (arrivals, jitter)
	// and its request generator. Default 1.
	Seed int64
}

func (s TenantSpec) withDefaults() TenantSpec {
	if s.BufferSize <= 0 {
		s.BufferSize = 64 << 10
	}
	if s.Arrivals == nil && s.Closed.Concurrency <= 0 {
		s.Closed.Concurrency = 1
	}
	if s.Window <= 0 {
		if s.Arrivals == nil {
			s.Window = s.Closed.Concurrency
		} else {
			s.Window = 8
		}
	}
	s.SLO = s.SLO.withDefaults()
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}
