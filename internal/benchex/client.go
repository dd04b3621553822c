package benchex

import (
	"fmt"

	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/stats"
	"resex/internal/trace"
	"resex/internal/xen"
)

// LatencyRecord is one request's client-side (end-to-end) measurement.
type LatencyRecord struct {
	Seq     uint64
	SentAt  sim.Time
	Latency sim.Time
}

// ClientStats aggregates a client's measurements.
type ClientStats struct {
	Sent, Received int64
	// OnTime counts responses whose end-to-end latency met the configured
	// SLA (ClientConfig.SLAUs); stays 0 with no SLA configured.
	OnTime   int64
	Latency  stats.Summary // end-to-end, µs
	Timeline []LatencyRecord
}

// Client is a BenchEx client running inside one VM, generating the
// exchange workload and measuring request latencies by timestamping. It
// busy-polls its completion queue and stamps each request at post time;
// the request itself travels through its Conn.
type Client struct {
	cfg  ClientConfig
	eng  *sim.Engine
	vcpu *xen.VCPU
	pd   *hca.PD
	gen  *trace.Generator

	rng  *sim.Rand
	conn *Conn
	scq  *hca.CQ
	rcq  *hca.CQ

	// sendBufs is a ring of request payload buffers, one per send queue
	// slot, built lazily; sendNext counts the requests encoded into it.
	// The device reads a payload only at delivery, and RC completes sends
	// in posting order, so by the time a buffer comes round again the send
	// that used it has completed (or PostSend fails with ErrSQFull), and
	// the server has copied the bytes into its receive buffer.
	sendBufs [][]byte
	sendNext int
	// cqe and onPoll (c.pollRecv, bound once) receive one completion for
	// the await loop without a closure per wait.
	cqe    hca.CQE
	onPoll func() bool

	stats   ClientStats
	running bool
	proc    *sim.Proc
	done    *sim.Signal
}

// NewClient creates a client on the given VCPU and PD. Connect its QP
// (Endpoint) to a server endpoint, then Start.
func NewClient(eng *sim.Engine, vcpu *xen.VCPU, pd *hca.PD, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if a := cfg.Arrivals; a != nil && !(a.RatePerSec() > 0) {
		return nil, fmt.Errorf("benchex: client %q arrival process %T has non-positive rate", cfg.Name, a)
	}
	c := &Client{
		cfg:  cfg,
		eng:  eng,
		vcpu: vcpu,
		pd:   pd,
		gen:  trace.NewGenerator(cfg.Seed),
		rng:  sim.NewRand(cfg.Seed ^ 0x5eed),
		done: sim.NewSignal(eng),
	}
	c.onPoll = c.pollRecv
	var err error
	if c.conn, err = NewConn(pd, cfg.BufferSize, cfg.Window+2, cfg.Window+2); err != nil {
		return nil, err
	}
	c.scq = pd.CreateCQ(1024)
	c.rcq = pd.CreateCQ(1024)
	if _, err := c.conn.Open(c.scq, c.rcq); err != nil {
		return nil, err
	}
	return c, nil
}

// Endpoint returns the client's QP for connection wiring.
func (c *Client) Endpoint() *hca.QP { return c.conn.QP() }

// Config returns the effective configuration.
func (c *Client) Config() ClientConfig { return c.cfg }

// Stats returns a snapshot of the client's measurements.
func (c *Client) Stats() ClientStats { return c.stats }

// ResetStats clears accumulated latency measurements (e.g. after warmup);
// sent/received counters restart too.
func (c *Client) ResetStats() {
	c.stats = ClientStats{}
}

// Done is broadcast when a bounded client finishes its request budget.
func (c *Client) Done() *sim.Signal { return c.done }

// Running reports whether the issue loop is active.
func (c *Client) Running() bool { return c.running }

// Rebind tears the client's connection down and builds a fresh one: the old
// QP is destroyed (flushing anything still posted), the flush completions
// are drained, and a new QP with a full receive ring replaces it. This is
// the client side of a server live migration — an RC connection is bound to
// one remote QP, so after the server resumes on another host the client
// must reconnect with a fresh endpoint. Only valid while stopped; the
// returned QP is ready for ConnectQPs.
func (c *Client) Rebind() (*hca.QP, error) {
	if c.running {
		return nil, fmt.Errorf("benchex: rebind of running client %q", c.cfg.Name)
	}
	c.pd.DestroyQP(c.conn.QP())
	c.rcq.Drain()
	c.scq.Drain()
	qp, err := c.conn.Open(c.scq, c.rcq)
	if err != nil {
		return nil, err
	}
	// Sends of the old QP may still be on the wire with their payloads:
	// the new QP encodes into fresh buffers.
	c.sendBufs = nil
	return qp, nil
}

// Start launches the request loop.
func (c *Client) Start() {
	if c.running {
		return
	}
	c.running = true
	c.proc = c.eng.Go(c.cfg.Name, c.run)
}

// Stop halts the request loop.
func (c *Client) Stop() {
	c.running = false
	if c.proc != nil && !c.proc.Ended() {
		c.proc.Kill()
	}
}

// run issues requests with at most Window outstanding, measuring the
// latency of each response against the timestamp carried in the request.
func (c *Client) run(p *sim.Proc) {
	outstanding := 0
	nextIssue := c.eng.Now()
	for c.running {
		budgetLeft := c.cfg.Requests == 0 || int(c.stats.Sent) < c.cfg.Requests
		if !budgetLeft && outstanding == 0 {
			break
		}
		canIssue := budgetLeft && outstanding < c.cfg.Window
		if canIssue && c.cfg.Arrivals != nil && c.eng.Now() < nextIssue {
			// Open-loop pacing: if nothing is in flight, idle-wait (the VM
			// is genuinely idle, not spinning) until the next issue slot.
			if outstanding == 0 {
				p.Sleep(nextIssue - c.eng.Now())
			} else {
				canIssue = false
			}
		}
		if canIssue {
			c.issue(p)
			outstanding++
			if c.cfg.Arrivals != nil {
				nextIssue += c.cfg.Arrivals.Gap(c.rng)
			}
			continue
		}
		// Await a response.
		c.vcpu.SpinWait(p, c.rcq.Signal(), c.onPoll)
		if !c.running {
			return
		}
		outstanding--
		c.complete(p, c.cqe)
		// Reap any send completions without blocking (they precede the
		// response but are not interesting to measure).
		c.scq.Drain()
	}
	c.running = false
	c.done.Broadcast()
}

// pollRecv reaps one response completion into c.cqe, reporting whether
// there was one: the await loop's SpinWait condition.
func (c *Client) pollRecv() bool {
	e, ok := c.rcq.Poll()
	if ok {
		c.cqe = e
	}
	return ok
}

// issue builds, encodes and posts one request.
func (c *Client) issue(p *sim.Proc) {
	req := c.gen.Next(c.eng.Now())
	c.conn.Prep(p, c.vcpu, c.rng)
	req.SentAt = c.eng.Now() // timestamp after marshaling, right at post
	// The HCA holds the payload until delivery and Window requests may be
	// in flight, so each request in flight has its own buffer.
	if err := c.conn.Post(req, c.nextPayload()); err != nil {
		panic(fmt.Sprintf("benchex: client post: %v", err))
	}
	c.stats.Sent++
}

// nextPayload returns the next request buffer of the send ring.
func (c *Client) nextPayload() []byte {
	if c.sendBufs == nil {
		c.sendBufs = make([][]byte, c.conn.QP().SQDepth())
	}
	i := c.sendNext % len(c.sendBufs)
	c.sendNext++
	if c.sendBufs[i] == nil {
		c.sendBufs[i] = make([]byte, trace.RequestSize)
	}
	return c.sendBufs[i]
}

// complete decodes a response, recycles its slot and measures its
// latency. A polling client takes no interrupt.
func (c *Client) complete(p *sim.Proc, cqe hca.CQE) {
	resp, err := c.conn.Response(p, c.vcpu, cqe, 0)
	now := c.eng.Now()
	if err == nil {
		lat := now - resp.SentAt
		c.stats.Received++
		if c.cfg.SLAUs > 0 && lat.Microseconds() <= c.cfg.SLAUs {
			c.stats.OnTime++
		}
		c.stats.Latency.Add(lat.Microseconds())
		if c.cfg.RecordTimeline {
			c.stats.Timeline = append(c.stats.Timeline, LatencyRecord{Seq: resp.Seq, SentAt: resp.SentAt, Latency: lat})
		}
	}
}
