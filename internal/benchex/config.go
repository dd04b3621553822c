// Package benchex implements BenchEx, the paper's RDMA latency-sensitive
// benchmark modeled after a financial trading exchange (ICE).
//
// A BenchEx application is a server VM and a client VM connected through
// the simulated InfiniBand fabric. Clients generate timestamped transaction
// requests (package trace), encode them into guest memory and SEND them to
// the server; the server reaps requests FCFS from its receive completion
// queue, charges its VCPU a per-request processing time standing in for the
// financial computation (ServerConfig.ProcessTime), SENDs back a response of
// the application's configured buffer size, and the client computes the
// end-to-end latency from its original timestamp.
//
// Server-side latency decomposes into the paper's three components
// (Figure 2):
//
//   - PTime: CQ polling time — from finishing the previous request to
//     reaping the next one. Spinning burns VCPU; when the VM is capped or
//     the incoming request is stuck behind fabric congestion, PTime grows.
//   - CTime: compute time — the charged processing time. Pinned VMs keep
//     CTime constant under I/O interference.
//   - WTime: I/O wait — from posting the response until its send
//     completion (RC ack), i.e. the time the HCA needs to push the
//     response through the shared link. Congestion shows up here first.
//
// The in-VM monitoring agent periodically summarizes observed latencies and
// forwards them to ResEx (charging the VM the paper's ~10 µs per report).
package benchex

import "resex/internal/sim"

// The fixed CPU costs of BenchEx's guest-side work.
const (
	// PostCost is the server CPU charged per verbs post (doorbell + WQE
	// build).
	PostCost = 2 * sim.Microsecond
	// InterruptCost is the server CPU charged per event-driven wakeup
	// (interrupt + context switch).
	InterruptCost = 5 * sim.Microsecond
	// PrepTime is the client CPU charged to build and marshal one request.
	PrepTime = 5 * sim.Microsecond
	// PrepJitter adds a uniform ±fraction to PrepTime per request, modeling
	// guest OS noise; it prevents unrealistic deterministic phase-locking
	// between collocated closed loops.
	PrepJitter = 0.1
)

// ServerConfig parameterizes a BenchEx server.
type ServerConfig struct {
	// Name labels stats and diagnostics.
	Name string
	// BufferSize is the application buffer size in bytes: the size of the
	// responses the server sends and of the request buffers it posts. This
	// is the knob the paper's experiments sweep (64 KB ... 2 MB).
	BufferSize int
	// ProcessTime is the CPU charged per request for financial processing
	// (CTime). When zero it defaults to 90 µs scaled by BufferSize/64KB: a
	// request buffer carries a batch of transactions proportional to its
	// size, so per-request compute scales with the buffer. This proportion
	// is what the paper's own Figures 3–4 imply: a CPU cap of
	// 100/BufferRatio exactly neutralizes an interferer, which requires the
	// interferer's I/O rate to be proportional to its CPU rate.
	ProcessTime sim.Time
	// RecvSlots is the number of receive buffers posted per client
	// endpoint. Default 8.
	RecvSlots int
	// CQDepth sizes the completion queues. Default 1024.
	CQDepth int
	// EventDriven makes the server block on completion events (the
	// ibv_req_notify_cq interrupt path) instead of busy-polling. Each
	// wakeup costs InterruptCost of CPU, but waiting consumes none — so an
	// event-driven server under a tight CPU cap keeps its budget for real
	// work, at the price of per-event latency. The polling-vs-events
	// ablation benchmark quantifies the trade.
	EventDriven bool
	// PipelineResponses makes the server fire-and-forget its responses:
	// instead of spinning for each send completion (WTime), it reaps
	// completions opportunistically and immediately polls for the next
	// request. Interference generators use this to keep the link saturated
	// with CPU proportional to bytes processed; latency-measured servers
	// keep it off so WTime is observable.
	PipelineResponses bool
	// RecordTimeline keeps a per-request record (needed by the timeline
	// figures). Summaries are always kept.
	RecordTimeline bool
	// IdleAwareService clocks PTime from the request CQE's device timestamp
	// rather than from the end of the previous request, so time spent waiting
	// with an *empty* receive queue does not count as service latency.
	// Closed-loop clients always have a request in flight, making the two
	// clocks nearly equal; open-loop clients leave genuine idle gaps that
	// would otherwise dominate the reported latency at light load and read
	// as phantom SLA violations (a 7 ms arrival gap is not a 7 ms request).
	// Off by default to preserve the paper figures' original accounting.
	IdleAwareService bool
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Name == "" {
		c.Name = "server"
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 64 << 10
	}
	if c.ProcessTime == 0 {
		c.ProcessTime = 90 * sim.Microsecond * sim.Time(c.BufferSize) / (64 << 10)
		if c.ProcessTime < 10*sim.Microsecond {
			c.ProcessTime = 10 * sim.Microsecond
		}
	}
	if c.RecvSlots <= 0 {
		c.RecvSlots = 8
	}
	if c.CQDepth <= 0 {
		c.CQDepth = 1024
	}
	return c
}

// ClientConfig parameterizes a BenchEx client.
type ClientConfig struct {
	// Name labels stats and diagnostics.
	Name string
	// BufferSize is the request size in bytes (the application's buffer);
	// must match the server's expectation. Default 64 KB.
	BufferSize int
	// Window is the number of outstanding requests (1 = strict closed
	// loop; interference generators use more). Default 1.
	Window int
	// Arrivals, when set, paces request issue open loop (subject to the
	// window) with the gaps it draws from the client's RNG; nil = closed
	// loop.
	Arrivals ArrivalProcess
	// SLAUs, when positive, is the client's end-to-end latency SLA in µs:
	// responses at or under it count toward ClientStats.OnTime, giving the
	// geo/scenario experiments an exact integer attainment counter (float
	// percentiles are not permutation-stable across zone relabelings;
	// integer tallies are).
	SLAUs float64
	// Requests stops the client after this many requests; 0 = run forever.
	Requests int
	// Seed drives the workload generator.
	Seed int64
	// RecordTimeline keeps per-request latency records.
	RecordTimeline bool
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Name == "" {
		c.Name = "client"
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 64 << 10
	}
	if c.Window <= 0 {
		c.Window = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
