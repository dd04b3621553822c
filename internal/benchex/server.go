package benchex

import (
	"fmt"

	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/stats"
	"resex/internal/trace"
	"resex/internal/xen"
)

// RequestRecord is one served request's latency decomposition.
type RequestRecord struct {
	Seq    uint64
	Reaped sim.Time // when the request CQE was reaped
	PTime  sim.Time
	CTime  sim.Time
	WTime  sim.Time
}

// Total returns PTime+CTime+WTime, the paper's server request service time.
func (r RequestRecord) Total() sim.Time { return r.PTime + r.CTime + r.WTime }

// ServerStats aggregates a server's measurements.
type ServerStats struct {
	Served   int64
	P, C, W  stats.Summary // per-component, in µs
	Total    stats.Summary // service time, in µs
	Timeline []RequestRecord
}

// Server is a BenchEx trading server running inside one VM.
type Server struct {
	cfg  ServerConfig
	eng  *sim.Engine
	vcpu *xen.VCPU
	pd   *hca.PD
	scq  *hca.CQ
	rcq  *hca.CQ
	eps  map[uint32]*Conn // client endpoints by QPN

	stats       ServerStats
	window      stats.Summary // since last agent report, µs
	running     bool
	proc        *sim.Proc
	reqScratch  []byte
	respScratch []byte
	// polled and polledCQ receive one completion for awaitCQE's SpinWait
	// condition, onPoll (s.pollCQ, bound once), without a closure per wait.
	polled   hca.CQE
	polledCQ *hca.CQ
	onPoll   func() bool
}

// NewServer creates a server on the given VCPU (its VM) and protection
// domain (its HCA context). Call NewEndpoint per client, connect the QPs,
// then Start.
func NewServer(eng *sim.Engine, vcpu *xen.VCPU, pd *hca.PD, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		eng:         eng,
		vcpu:        vcpu,
		pd:          pd,
		eps:         make(map[uint32]*Conn),
		reqScratch:  make([]byte, trace.RequestSize),
		respScratch: make([]byte, trace.ResponseSize),
	}
	s.onPoll = s.pollCQ
	s.scq = pd.CreateCQ(cfg.CQDepth)
	s.rcq = pd.CreateCQ(cfg.CQDepth)
	return s
}

// Config returns the effective configuration.
func (s *Server) Config() ServerConfig { return s.cfg }

// SendCQ returns the send completion queue — the one IBMon watches to see
// the VM's outbound MTUs.
func (s *Server) SendCQ() *hca.CQ { return s.scq }

// VCPU returns the VCPU the server runs on.
func (s *Server) VCPU() *xen.VCPU { return s.vcpu }

// NewEndpoint opens the server side of one client connection on the
// server's shared CQs, with RecvSlots receive buffers posted. The caller
// connects the returned QP to the client's QP.
func (s *Server) NewEndpoint() (*hca.QP, error) {
	ep, err := NewConn(s.pd, s.cfg.BufferSize, s.cfg.RecvSlots, s.cfg.RecvSlots+2)
	if err != nil {
		return nil, err
	}
	qp, err := ep.Open(s.scq, s.rcq)
	if err != nil {
		return nil, err
	}
	s.eps[qp.QPN()] = ep
	return qp, nil
}

// Start launches the serving loop.
func (s *Server) Start() {
	if s.running {
		return
	}
	s.running = true
	s.proc = s.eng.Go(s.cfg.Name, s.run)
}

// Stop halts the serving loop.
func (s *Server) Stop() {
	s.running = false
	if s.proc != nil && !s.proc.Ended() {
		s.proc.Kill()
	}
}

// Stats returns a snapshot of the server's measurements.
func (s *Server) Stats() ServerStats { return s.stats }

// ResetStats clears accumulated measurements (e.g. after a warmup phase).
func (s *Server) ResetStats() {
	s.stats = ServerStats{}
	s.window.Reset()
}

// awaitCQE obtains the next completion from cq, either by busy-polling
// (burning CPU for the whole wait) or, in event-driven mode, by blocking on
// the completion event and paying only the interrupt cost per wakeup.
func (s *Server) awaitCQE(p *sim.Proc, cq *hca.CQ) (hca.CQE, bool) {
	if !s.cfg.EventDriven {
		s.polledCQ = cq
		s.vcpu.SpinWait(p, cq.Signal(), s.onPoll)
		return s.polled, true
	}
	for s.running {
		if e, ok := cq.Poll(); ok {
			s.vcpu.Use(p, InterruptCost)
			return e, true
		}
		cq.Signal().Wait(p) // blocked, VCPU idle: no budget burned
	}
	return hca.CQE{}, false
}

// pollCQ reaps one completion from polledCQ into polled, reporting whether
// there was one.
func (s *Server) pollCQ() bool {
	e, ok := s.polledCQ.Poll()
	if ok {
		s.polled = e
	}
	return ok
}

// run is the FCFS serving loop: poll → decode → process → respond → wait.
func (s *Server) run(p *sim.Proc) {
	for s.running {
		// ---- PTime: await the next request on the recv CQ.
		t0 := s.eng.Now()
		cqe, ok := s.awaitCQE(p, s.rcq)
		if !ok {
			return
		}
		if !s.running {
			return
		}
		pTime := s.eng.Now() - t0
		if s.cfg.IdleAwareService && cqe.At > t0 {
			// The request reached the NIC only at cqe.At; the span before
			// that was an empty queue, not service.
			pTime = s.eng.Now() - cqe.At
		}
		reaped := s.eng.Now()

		ep := s.eps[cqe.QPN]
		if ep == nil {
			continue // completion for a torn-down endpoint
		}
		slot := int(cqe.WRID)

		// ---- CTime: decode and process.
		t1 := s.eng.Now()
		ep.read(slot, s.reqScratch)
		req, derr := trace.DecodeRequest(s.reqScratch)
		resp := trace.Response{Status: 1}
		if derr == nil {
			resp.Seq = req.Seq
			resp.SentAt = req.SentAt
			resp.Status = 0
		}
		s.vcpu.Use(p, s.cfg.ProcessTime)
		resp.ServerAt = s.eng.Now()
		if err := resp.Encode(s.respScratch); err != nil {
			panic(err)
		}
		ep.write(s.respScratch)
		// Recycle the receive slot before responding, so a pipelined client
		// always finds a buffer.
		s.vcpu.Use(p, PostCost)
		ep.repost(slot)
		cTime := s.eng.Now() - t1

		// ---- WTime: post the response; either spin on its completion or
		// (pipelined) reap completions opportunistically.
		t2 := s.eng.Now()
		s.vcpu.Use(p, PostCost)
		for {
			err := ep.send(resp.Seq, s.respScratch)
			if err == nil {
				break
			}
			if err != hca.ErrSQFull {
				panic(fmt.Sprintf("benchex: post response: %v", err))
			}
			// Pipelined mode outran the acks: wait for one completion.
			if _, ok := s.awaitCQE(p, s.scq); !ok {
				return
			}
		}
		if s.cfg.PipelineResponses {
			s.scq.Drain()
		} else {
			if _, ok := s.awaitCQE(p, s.scq); !ok {
				return
			}
		}
		wTime := s.eng.Now() - t2

		s.record(RequestRecord{Seq: resp.Seq, Reaped: reaped, PTime: pTime, CTime: cTime, WTime: wTime})
	}
}

// record folds one request into the statistics.
func (s *Server) record(r RequestRecord) {
	s.stats.Served++
	us := func(t sim.Time) float64 { return t.Microseconds() }
	s.stats.P.Add(us(r.PTime))
	s.stats.C.Add(us(r.CTime))
	s.stats.W.Add(us(r.WTime))
	total := us(r.Total())
	s.stats.Total.Add(total)
	s.window.Add(total)
	if s.cfg.RecordTimeline {
		s.stats.Timeline = append(s.stats.Timeline, r)
	}
}

// drainWindow returns and resets the since-last-report latency summary
// (used by the monitoring agent).
func (s *Server) drainWindow() stats.Summary {
	w := s.window
	s.window.Reset()
	return w
}
