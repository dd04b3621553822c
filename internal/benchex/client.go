package benchex

import (
	"fmt"

	"resex/internal/guestmem"
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
	Sample   *stats.Sample // retained latencies for distribution plots
	Timeline []LatencyRecord
}

// Client is a BenchEx client running inside one VM, generating the
// exchange workload and measuring request latencies by timestamping.
type Client struct {
	cfg  ClientConfig
	eng  *sim.Engine
	vcpu *xen.VCPU
	pd   *hca.PD
	gen  RequestSource

	rng     *sim.Rand
	qp      *hca.QP
	scq     *hca.CQ
	rcq     *hca.CQ
	sendBuf guestmem.Addr
	sendMR  *hca.MR
	recvBuf guestmem.Addr
	recvMR  *hca.MR
	slots   int

	stats   ClientStats
	running bool
	proc    *sim.Proc
	done    *sim.Signal
}

// NewClient creates a client on the given VCPU and PD. Connect its QP
// (Endpoint) to a server endpoint, then Start.
func NewClient(eng *sim.Engine, vcpu *xen.VCPU, pd *hca.PD, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:  cfg,
		eng:  eng,
		vcpu: vcpu,
		pd:   pd,
		gen:  cfg.Source,
		rng:  sim.NewRand(cfg.Seed ^ 0x5eed),
		done: sim.NewSignal(eng),
	}
	if c.gen == nil {
		c.gen = trace.NewGenerator(cfg.Seed, trace.GeneratorConfig{})
	}
	c.stats.Sample = stats.NewSample(4096)
	c.slots = cfg.Window + 2
	space := pd.Space()
	bs := uint64(cfg.BufferSize)
	c.sendBuf = space.Alloc(bs, 64)
	c.recvBuf = space.Alloc(bs*uint64(c.slots), 64)
	var err error
	c.sendMR, err = pd.RegisterMR(c.sendBuf, bs, 0)
	if err != nil {
		return nil, fmt.Errorf("benchex: client send MR: %w", err)
	}
	c.recvMR, err = pd.RegisterMR(c.recvBuf, bs*uint64(c.slots), hca.AccessLocalWrite)
	if err != nil {
		return nil, fmt.Errorf("benchex: client recv MR: %w", err)
	}
	c.scq = pd.CreateCQ(1024)
	c.rcq = pd.CreateCQ(1024)
	c.qp = pd.CreateQP(c.scq, c.rcq, cfg.Window+2, c.slots)
	for slot := 0; slot < c.slots; slot++ {
		if err := c.postRecv(slot); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Endpoint returns the client's QP for connection wiring.
func (c *Client) Endpoint() *hca.QP { return c.qp }

// Config returns the effective configuration.
func (c *Client) Config() ClientConfig { return c.cfg }

// Stats returns a snapshot of the client's measurements.
func (c *Client) Stats() ClientStats { return c.stats }

// ResetStats clears accumulated latency measurements (e.g. after warmup);
// sent/received counters restart too.
func (c *Client) ResetStats() {
	c.stats = ClientStats{Sample: stats.NewSample(4096)}
}

// SetInterval retunes the open-loop pacing mid-run: the issue loop reads
// the interval fresh for every gap, so the new rate takes effect from the
// next issue slot. This is how the geo-diurnal drivers modulate per-zone
// offered load at simulation-time boundaries (the call must come from the
// client's own engine — a simpar boundary callback or an engine event —
// never from another goroutine). Non-positive intervals are ignored: a
// paced client stays paced.
func (c *Client) SetInterval(d sim.Time) {
	if d > 0 {
		c.cfg.Interval = d
	}
}

// Done is broadcast when a bounded client finishes its request budget.
func (c *Client) Done() *sim.Signal { return c.done }

// Running reports whether the issue loop is active.
func (c *Client) Running() bool { return c.running }

func (c *Client) postRecv(slot int) error {
	return c.qp.PostRecv(hca.RecvWR{
		ID:   uint64(slot),
		Addr: c.recvBuf + guestmem.Addr(slot*c.cfg.BufferSize),
		LKey: c.recvMR.Key(),
		Len:  c.cfg.BufferSize,
	})
}

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
	c.pd.DestroyQP(c.qp)
	for {
		if _, ok := c.rcq.Poll(); !ok {
			break
		}
	}
	for {
		if _, ok := c.scq.Poll(); !ok {
			break
		}
	}
	c.qp = c.pd.CreateQP(c.scq, c.rcq, c.cfg.Window+2, c.slots)
	for slot := 0; slot < c.slots; slot++ {
		if err := c.postRecv(slot); err != nil {
			return nil, err
		}
	}
	return c.qp, nil
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
		if canIssue && c.cfg.Interval > 0 && c.eng.Now() < nextIssue {
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
			if c.cfg.Interval > 0 {
				nextIssue += c.drawGap()
			}
			continue
		}
		// Await a response.
		var cqe hca.CQE
		c.vcpu.SpinWait(p, c.rcq.Signal(), func() bool {
			e, ok := c.rcq.Poll()
			if ok {
				cqe = e
			}
			return ok
		})
		if !c.running {
			return
		}
		outstanding--
		c.complete(p, cqe)
		// Reap any send completions without blocking (they precede the
		// response but are not interesting to measure).
		for {
			if _, ok := c.scq.Poll(); !ok {
				break
			}
		}
	}
	c.running = false
	c.done.Broadcast()
}

// drawGap returns the next interarrival gap according to the configured
// arrival process.
func (c *Client) drawGap() sim.Time {
	m := c.cfg.Interval
	switch {
	case c.cfg.BurstyArrivals:
		// Hyperexponential H2: 15% long gaps at 4× the mean, the remaining
		// 85% at ~0.47× so the overall mean stays Interval.
		if c.rng.Float64() < 0.15 {
			return c.rng.ExpDuration(4 * m)
		}
		return c.rng.ExpDuration(sim.Time(float64(m) * 0.4 / 0.85))
	case c.cfg.PoissonArrivals:
		return c.rng.ExpDuration(m)
	default:
		return m
	}
}

// issue builds, encodes and posts one request.
func (c *Client) issue(p *sim.Proc) {
	req := c.gen.Next(c.eng.Now())
	prep := c.cfg.PrepTime
	if c.cfg.PrepJitter > 0 {
		prep = sim.Time(float64(prep) * c.rng.Uniform(1-c.cfg.PrepJitter, 1+c.cfg.PrepJitter))
		if prep < 1 {
			prep = 1
		}
	}
	c.vcpu.Use(p, prep)
	req.SentAt = c.eng.Now() // timestamp after marshaling, right at post
	// The HCA holds the payload until delivery and Window requests may be
	// in flight, so each request is encoded into its own buffer.
	buf := make([]byte, trace.RequestSize)
	if err := req.Encode(buf); err != nil {
		panic(err)
	}
	c.pd.Space().Write(c.sendBuf, buf)
	err := c.qp.PostSend(hca.SendWR{
		ID:        req.Seq,
		Op:        hca.OpSend,
		LocalAddr: c.sendBuf,
		LKey:      c.sendMR.Key(),
		Len:       c.cfg.BufferSize,
		Payload:   buf,
	})
	if err != nil {
		panic(fmt.Sprintf("benchex: client post: %v", err))
	}
	c.stats.Sent++
}

// complete decodes a response, measures its latency, recycles the slot.
func (c *Client) complete(p *sim.Proc, cqe hca.CQE) {
	slot := int(cqe.WRID)
	buf := make([]byte, trace.ResponseSize)
	c.pd.Space().Read(c.recvBuf+guestmem.Addr(slot*c.cfg.BufferSize), buf)
	resp, err := trace.DecodeResponse(buf)
	now := c.eng.Now()
	if err == nil {
		lat := now - resp.SentAt
		c.stats.Received++
		if c.cfg.SLAUs > 0 && lat.Microseconds() <= c.cfg.SLAUs {
			c.stats.OnTime++
		}
		c.stats.Latency.Add(lat.Microseconds())
		c.stats.Sample.Add(lat.Microseconds())
		if c.cfg.RecordTimeline {
			c.stats.Timeline = append(c.stats.Timeline, LatencyRecord{Seq: resp.Seq, SentAt: resp.SentAt, Latency: lat})
		}
	}
	if err := c.postRecv(slot); err != nil {
		panic(fmt.Sprintf("benchex: client repost: %v", err))
	}
	if c.cfg.ThinkTime > 0 {
		c.vcpu.Use(p, c.cfg.ThinkTime)
	}
}
