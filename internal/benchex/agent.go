package benchex

import (
	"resex/internal/sim"
	"resex/internal/xen"
)

// LatencyReport is what the in-VM agent forwards to ResEx: a summary of the
// server latencies observed since the previous report.
type LatencyReport struct {
	Domain xen.DomID
	Count  int64
	Mean   float64 // µs
	Std    float64 // µs
}

// ReportSink receives agent reports (implemented by the ResEx manager).
type ReportSink interface {
	LatencyReport(r LatencyReport)
}

// The in-VM monitoring agent's fixed timing.
const (
	// AgentPeriod is the time between reports: one ResEx charge interval.
	AgentPeriod = sim.Millisecond
	// ReportCost is the CPU charged per report; the paper measures ~10 µs.
	ReportCost = 10 * sim.Microsecond
)

// Agent runs inside the server VM, sharing its VCPU with the server loop,
// and periodically forwards latency summaries to ResEx. Its CPU cost rides
// on the VM like any other guest work.
type Agent struct {
	server  *Server
	dom     xen.DomID
	sink    ReportSink
	proc    *sim.Proc
	running bool
	reports int64
}

// NewAgent creates an agent for the given server, reporting as the given
// domain to the sink.
func NewAgent(server *Server, dom xen.DomID, sink ReportSink) *Agent {
	return &Agent{server: server, dom: dom, sink: sink}
}

// Reports returns how many reports the agent has sent.
func (a *Agent) Reports() int64 { return a.reports }

// Start launches the reporting loop on the server's engine and VCPU.
func (a *Agent) Start() {
	if a.running {
		return
	}
	a.running = true
	a.proc = a.server.eng.Go(a.server.cfg.Name+"-agent", func(p *sim.Proc) {
		for a.running {
			p.Sleep(AgentPeriod)
			w := a.server.drainWindow()
			if w.Count() == 0 {
				continue
			}
			// Reporting costs the VM CPU (the paper's ~10µs), so heavy
			// reporting shows up as guest overhead, not as magic.
			a.server.vcpu.Use(p, ReportCost)
			a.reports++
			a.sink.LatencyReport(LatencyReport{
				Domain: a.dom,
				Count:  w.Count(),
				Mean:   w.Mean(),
				Std:    w.StdDev(),
			})
		}
	})
}

// Stop halts the reporting loop.
func (a *Agent) Stop() {
	a.running = false
	if a.proc != nil && !a.proc.Ended() {
		a.proc.Kill()
	}
}
