// Package softrt implements a soft-real-time streaming workload — the
// "phone call switching or multimedia delivery" class of applications the
// paper's introduction motivates alongside trading. A Streamer VM sends
// fixed-size frames at a fixed period over the simulated RDMA fabric; the
// Receiver measures per-frame latency, jitter, and — the soft-real-time
// currency — deadline misses. Fabric interference turns into missed
// deadlines here rather than raised averages, which is exactly why such
// workloads need ResEx-style isolation to be consolidatable.
package softrt

import (
	"encoding/binary"
	"fmt"

	"resex/internal/cluster"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/stats"
)

// PrepTime is sender CPU per frame.
const PrepTime = 10 * sim.Microsecond

// Config parameterizes a stream.
type Config struct {
	// FrameSize in bytes. Default 16 KB (a video slice / audio bundle).
	FrameSize int
	// Period between frames. Default 10 ms (a 100 Hz media stream).
	Period sim.Time
	// Deadline after send time by which the frame must arrive. Default:
	// half the period.
	Deadline sim.Time
	// Frames bounds the stream (0 = run forever).
	Frames int
}

func (c Config) withDefaults() Config {
	if c.FrameSize <= 0 {
		c.FrameSize = 16 << 10
	}
	if c.Period <= 0 {
		c.Period = 10 * sim.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = c.Period / 2
	}
	return c
}

// Stats summarizes the receiver's view of the stream.
type Stats struct {
	Sent, Received int64
	Missed         int64         // frames past their deadline
	Latency        stats.Summary // per-frame latency, µs
	Jitter         stats.Summary // |latency − previous latency|, µs
}

// MissRate returns the fraction of received frames that missed their
// deadline.
func (s Stats) MissRate() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Received)
}

// Stream is a connected sender/receiver pair.
type Stream struct {
	cfg   Config
	eng   *sim.Engine
	sxvm  *cluster.VM
	rxvm  *cluster.VM
	sqp   *hca.QP
	rqp   *hca.QP
	scq   *hca.CQ
	rcq   *hca.CQ
	sbuf  guestmem.Addr
	smr   *hca.MR
	rbuf  guestmem.Addr
	rmr   *hca.MR
	slots int

	stats    Stats
	lastLat  float64
	haveLast bool
	running  bool
}

// New builds a stream from senderHost to receiverHost, each side in its own
// VM.
func New(tb *cluster.Testbed, senderHost, receiverHost *cluster.Host, cfg Config) (*Stream, error) {
	cfg = cfg.withDefaults()
	st := &Stream{cfg: cfg, eng: tb.Eng, slots: 16}
	st.sxvm = senderHost.NewVM("stream-tx-vm")
	st.rxvm = receiverHost.NewVM("stream-rx-vm")

	txpd, rxpd := st.sxvm.PD, st.rxvm.PD
	st.scq = txpd.CreateCQ(256)
	st.rcq = rxpd.CreateCQ(256)
	st.sqp = txpd.CreateQP(st.scq, txpd.CreateCQ(16), 32, 0)
	st.rqp = rxpd.CreateQP(rxpd.CreateCQ(16), st.rcq, 4, st.slots)

	bs := uint64(cfg.FrameSize)
	st.sbuf = txpd.Space().Alloc(bs, 64)
	st.rbuf = rxpd.Space().Alloc(bs*uint64(st.slots), 64)
	var err error
	if st.smr, err = txpd.RegisterMR(st.sbuf, bs, 0); err != nil {
		return nil, err
	}
	if st.rmr, err = rxpd.RegisterMR(st.rbuf, bs*uint64(st.slots), hca.AccessLocalWrite); err != nil {
		return nil, err
	}
	if err := cluster.ConnectQPs(st.sqp, st.rqp, senderHost, receiverHost); err != nil {
		return nil, err
	}
	for slot := 0; slot < st.slots; slot++ {
		if err := st.postRecv(slot); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Stats returns the receiver-side measurements so far.
func (st *Stream) Stats() Stats { return st.stats }

func (st *Stream) postRecv(slot int) error {
	return st.rqp.PostRecv(hca.RecvWR{
		ID:   uint64(slot),
		Addr: st.rbuf + guestmem.Addr(slot*st.cfg.FrameSize),
		LKey: st.rmr.Key(),
		Len:  st.cfg.FrameSize,
	})
}

// Start launches the sender and receiver loops.
func (st *Stream) Start() {
	if st.running {
		return
	}
	st.running = true
	st.eng.Go("stream-tx", st.sendLoop)
	st.eng.Go("stream-rx", st.recvLoop)
}

// sendLoop emits one timestamped frame per period, strictly paced: a late
// previous frame does not delay the next (media sources don't stall).
func (st *Stream) sendLoop(p *sim.Proc) {
	var frame [16]byte
	next := st.eng.Now()
	for {
		if st.cfg.Frames > 0 && st.stats.Sent >= int64(st.cfg.Frames) {
			return
		}
		if now := st.eng.Now(); now < next {
			p.Sleep(next - now)
		}
		next += st.cfg.Period
		st.sxvm.VCPU.Use(p, PrepTime)
		st.stats.Sent++
		seq := uint64(st.stats.Sent)
		binary.LittleEndian.PutUint64(frame[0:], seq)
		binary.LittleEndian.PutUint64(frame[8:], uint64(st.eng.Now()))
		st.sxvm.PD.Space().Write(st.sbuf, frame[:])
		err := st.sqp.PostSend(hca.SendWR{
			ID:        seq,
			LocalAddr: st.sbuf, LKey: st.smr.Key(),
			Len: st.cfg.FrameSize, Payload: frame[:],
		})
		if err == hca.ErrSQFull {
			// Backlogged fabric: this frame is dropped at the source, as a
			// real media sender with a full ring would do.
			st.stats.Sent--
			continue
		}
		if err != nil {
			panic(fmt.Sprintf("softrt: post frame: %v", err))
		}
		// Reap send completions opportunistically.
		st.scq.Drain()
	}
}

// recvLoop reaps frames, computing latency, jitter and deadline misses.
func (st *Stream) recvLoop(p *sim.Proc) {
	var hdr [16]byte
	for {
		var cqe hca.CQE
		st.rxvm.VCPU.SpinWait(p, st.rcq.Signal(), func() bool {
			e, ok := st.rcq.Poll()
			if ok {
				cqe = e
			}
			return ok
		})
		slot := int(cqe.WRID)
		st.rxvm.PD.Space().Read(st.rbuf+guestmem.Addr(slot*st.cfg.FrameSize), hdr[:])
		sentAt := sim.Time(binary.LittleEndian.Uint64(hdr[8:]))
		lat := st.eng.Now() - sentAt
		st.stats.Received++
		us := lat.Microseconds()
		st.stats.Latency.Add(us)
		if st.haveLast {
			d := us - st.lastLat
			if d < 0 {
				d = -d
			}
			st.stats.Jitter.Add(d)
		}
		st.lastLat, st.haveLast = us, true
		if lat > st.cfg.Deadline {
			st.stats.Missed++
		}
		if err := st.postRecv(slot); err != nil {
			panic(fmt.Sprintf("softrt: repost: %v", err))
		}
	}
}
