package benchex

import (
	"fmt"

	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/trace"
	"resex/internal/xen"
)

// Conn is one BenchEx connection's verbs state and its half of the request
// path, shared by every party that speaks the protocol: the benchex Client,
// the workload package's tenant client, and each of the Server's per-client
// endpoints. It owns a send buffer and its MR, a receive slab of slots ×
// BufferSize and its MR, the QP with the receive ring pre-posted, and the
// scratch a response is decoded from.
//
// What differs between callers stays with them: the arrival and window
// logic, the time a request is stamped with (the client stamps the post,
// the tenant the arrival), the payload slice handed to Post, and the
// interrupt charged per completion. The busy-polling client charges none,
// the event-driven tenant workload.InterruptCost (2 µs), and an
// event-driven server InterruptCost (5 µs) per wakeup.
type Conn struct {
	pd      *hca.PD
	qp      *hca.QP
	size    int // BufferSize
	slots   int
	sqDepth int
	sendBuf guestmem.Addr
	sendMR  *hca.MR
	recvBuf guestmem.Addr
	recvMR  *hca.MR
	resp    [trace.ResponseSize]byte
}

// NewConn allocates a connection's send buffer and receive slab in pd's
// guest memory and registers both. Open then creates its QP.
func NewConn(pd *hca.PD, bufferSize, slots, sqDepth int) (*Conn, error) {
	c := &Conn{pd: pd, size: bufferSize, slots: slots, sqDepth: sqDepth}
	space := pd.Space()
	bs := uint64(bufferSize)
	c.sendBuf = space.Alloc(bs, 64)
	c.recvBuf = space.Alloc(bs*uint64(slots), 64)
	var err error
	if c.sendMR, err = pd.RegisterMR(c.sendBuf, bs, 0); err == nil {
		c.recvMR, err = pd.RegisterMR(c.recvBuf, bs*uint64(slots), hca.AccessLocalWrite)
	}
	if err != nil {
		return nil, fmt.Errorf("benchex: registering connection buffers: %w", err)
	}
	return c, nil
}

// Open creates the connection's QP on the given CQs and posts its receive
// ring; the returned QP is ready for cluster.ConnectQPs. A client that
// reconnects destroys the old QP and opens again.
func (c *Conn) Open(scq, rcq *hca.CQ) (*hca.QP, error) {
	c.qp = c.pd.CreateQP(scq, rcq, c.sqDepth, c.slots)
	for slot := 0; slot < c.slots; slot++ {
		if err := c.postRecv(slot); err != nil {
			return nil, fmt.Errorf("benchex: posting the receive ring: %w", err)
		}
	}
	return c.qp, nil
}

// QP returns the connection's current QP.
func (c *Conn) QP() *hca.QP { return c.qp }

// Prep charges vcpu the CPU of building and marshaling one request:
// PrepTime, jittered by ±PrepJitter with a draw from rng.
func (c *Conn) Prep(p *sim.Proc, vcpu *xen.VCPU, rng *sim.Rand) {
	prep := sim.Time(float64(PrepTime) * rng.Uniform(1-PrepJitter, 1+PrepJitter))
	if prep < 1 {
		prep = 1
	}
	vcpu.Use(p, prep)
}

// Post encodes req into payload, writes it to the send buffer and posts
// the SEND. The HCA holds payload until delivery, so the caller must not
// reuse it while the request is in flight.
func (c *Conn) Post(req trace.Request, payload []byte) error {
	if err := req.Encode(payload); err != nil {
		return err
	}
	c.write(payload)
	return c.send(req.Seq, payload)
}

// Response decodes the response that cqe landed in its receive slot,
// charges vcpu the caller's per-completion interrupt cost, and reposts
// the slot.
func (c *Conn) Response(p *sim.Proc, vcpu *xen.VCPU, cqe hca.CQE, interrupt sim.Time) (trace.Response, error) {
	slot := int(cqe.WRID)
	c.read(slot, c.resp[:])
	resp, err := trace.DecodeResponse(c.resp[:])
	vcpu.Use(p, interrupt)
	c.repost(slot)
	return resp, err
}

// read copies the head of a receive slot into b.
func (c *Conn) read(slot int, b []byte) {
	c.pd.Space().Read(c.recvBuf+guestmem.Addr(slot*c.size), b)
}

// write copies b to the head of the send buffer.
func (c *Conn) write(b []byte) { c.pd.Space().Write(c.sendBuf, b) }

// send posts a SEND of the whole buffer carrying payload.
func (c *Conn) send(id uint64, payload []byte) error {
	return c.qp.PostSend(hca.SendWR{
		ID:        id,
		LocalAddr: c.sendBuf,
		LKey:      c.sendMR.Key(),
		Len:       c.size,
		Payload:   payload,
	})
}

func (c *Conn) postRecv(slot int) error {
	return c.qp.PostRecv(hca.RecvWR{
		ID:   uint64(slot),
		Addr: c.recvBuf + guestmem.Addr(slot*c.size),
		LKey: c.recvMR.Key(),
		Len:  c.size,
	})
}

// repost returns a consumed receive slot to the ring.
func (c *Conn) repost(slot int) {
	if err := c.postRecv(slot); err != nil {
		panic(fmt.Sprintf("benchex: repost: %v", err))
	}
}
