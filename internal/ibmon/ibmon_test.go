package ibmon

import (
	"testing"

	"resex/internal/fabric"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/xen"
)

// harness builds one hypervisor-backed host (node 1) and a remote host
// (node 2), with a guest domain on node 1 whose traffic IBMon watches.
type harness struct {
	eng   *sim.Engine
	hv    *xen.Hypervisor
	guest *xen.Domain
	h1    *hca.HCA
	pd1   *hca.PD
	qp1   *hca.QP
	scq   *hca.CQ
	mr1   *hca.MR
	src   guestmem.Addr
}

func newHarness(t *testing.T, cqDepth int) *harness {
	t.Helper()
	eng := sim.New()
	hv := xen.New(eng, xen.Config{})
	h := &harness{eng: eng, hv: hv}
	h.guest = hv.CreateDomain("guest", 64<<20, 0)

	h.h1 = hca.New(eng, hca.Config{Node: 1})
	h2 := hca.New(eng, hca.Config{Node: 2})
	sw := fabric.NewSwitch(eng, 100)
	hcas := map[int]*hca.HCA{1: h.h1, 2: h2}
	for n, hc := range hcas {
		hc.SetPeerResolver(func(n int) *hca.HCA { return hcas[n] })
		hc.SetUplink(fabric.NewLink(eng, "up", 1e9, 100, fabric.RoundRobin, sw.Inject))
		hcc := hc
		sw.AttachNode(n, fabric.NewLink(eng, "down", 1e9, 100, fabric.RoundRobin, hcc.Deliver))
	}
	h.pd1 = h.h1.AllocPD(h.guest.Memory())
	mem2 := guestmem.NewSpace(64 << 20)
	pd2 := h2.AllocPD(mem2)

	h.scq = h.pd1.CreateCQ(cqDepth)
	rcq1 := h.pd1.CreateCQ(cqDepth)
	scq2, rcq2 := pd2.CreateCQ(4096), pd2.CreateCQ(4096)
	h.qp1 = h.pd1.CreateQP(h.scq, rcq1, 512, 512)
	qp2 := pd2.CreateQP(scq2, rcq2, 512, 512)
	if err := h.qp1.Connect(2, qp2.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qp2.Connect(1, h.qp1.QPN()); err != nil {
		t.Fatal(err)
	}
	h.src = h.guest.Memory().Alloc(4<<20, 64)
	dst := mem2.Alloc(4<<20, 64)
	h.mr1, _ = h.pd1.RegisterMR(h.src, 4<<20, 0)
	mr2, _ := pd2.RegisterMR(dst, 4<<20, hca.AccessLocalWrite)
	// One receive per send a test makes, so no SEND waits for a buffer.
	for i := 0; i < 512; i++ {
		if err := qp2.PostRecv(hca.RecvWR{ID: uint64(i), Addr: dst, LKey: mr2.Key(), Len: 4 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// sendN posts n SENDs of sz bytes from the guest, gap apart.
func (h *harness) sendN(t *testing.T, n, sz int, gap sim.Time) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := uint64(i)
		h.eng.Schedule(sim.Time(i)*gap, func() {
			err := h.qp1.PostSend(hca.SendWR{ID: id, LocalAddr: h.src, LKey: h.mr1.Key(), Len: sz})
			if err != nil {
				t.Errorf("post %d: %v", id, err)
			}
		})
	}
}

func TestWatchValidation(t *testing.T) {
	h := newHarness(t, 64)
	m := New(h.hv, nil, Config{})
	if _, err := m.Watch(h.guest.ID(), 0, 0, 0); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := m.WatchCQ(xen.DomID(99), h.scq); err == nil {
		t.Error("unknown domain accepted")
	}
	tgt, err := m.WatchCQ(h.guest.ID(), h.scq)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Domain() != h.guest.ID() {
		t.Error("target domain")
	}
	if m.Target(h.guest.ID()) != tgt || m.Target(xen.DomID(50)) != nil {
		t.Error("Target lookup")
	}
	if len(m.Targets()) != 1 {
		t.Error("Targets")
	}
}

func TestExactCountsWhenSamplingKeepsUp(t *testing.T) {
	h := newHarness(t, 256)
	m := New(h.hv, nil, Config{Period: 100 * sim.Microsecond})
	tgt, err := m.WatchCQ(h.guest.ID(), h.scq)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(h.eng)
	// 50 sends of 64KB, 150µs apart: CQ never wraps between samples.
	h.sendN(t, 50, 65536, 150*sim.Microsecond)
	h.eng.RunUntil(20 * sim.Millisecond)
	m.Stop()
	u := tgt.Usage()
	if u.Completions != 50 {
		t.Errorf("Completions = %d, want 50", u.Completions)
	}
	if u.Lost != 0 {
		t.Errorf("Lost = %d, want 0", u.Lost)
	}
	if u.MTUsSent != 50*64 {
		t.Errorf("MTUsSent = %d, want %d", u.MTUsSent, 50*64)
	}
	if u.BytesSent != 50*65536 {
		t.Errorf("BytesSent = %d", u.BytesSent)
	}
	if u.BufferSize != 65536 {
		t.Errorf("BufferSize = %d, want 65536 (inferred)", u.BufferSize)
	}
	if u.QPN != h.qp1.QPN() {
		t.Errorf("QPN = %d, want %d (inferred)", u.QPN, h.qp1.QPN())
	}
	if u.Samples == 0 {
		t.Error("no samples recorded")
	}
	h.eng.Shutdown()
}

func TestEstimationUnderRingWrap(t *testing.T) {
	// Tiny CQ + slow sampling: entries are overwritten before IBMon reads
	// them. Counts must still be right (from the doorbell record) and bytes
	// approximately right (extrapolated).
	h := newHarness(t, 8)
	m := New(h.hv, nil, Config{Period: 2 * sim.Millisecond})
	tgt, err := m.WatchCQ(h.guest.ID(), h.scq)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(h.eng)
	h.sendN(t, 100, 65536, 70*sim.Microsecond) // ~28 completions per sample
	h.eng.RunUntil(20 * sim.Millisecond)
	m.Stop()
	u := tgt.Usage()
	if u.Completions != 100 {
		t.Errorf("Completions = %d, want 100 (doorbell record is exact)", u.Completions)
	}
	if u.Lost == 0 {
		t.Error("expected lost entries with an 8-deep ring")
	}
	// Extrapolated MTUs within 25% of truth.
	truth := int64(100 * 64)
	if u.MTUsSent < truth*3/4 || u.MTUsSent > truth*5/4 {
		t.Errorf("MTUsSent = %d, want within 25%% of %d", u.MTUsSent, truth)
	}
	h.eng.Shutdown()
}

func TestMonitoringChargesDom0CPU(t *testing.T) {
	h := newHarness(t, 256)
	dom0 := h.hv.Dom0()
	v0 := dom0.AddVCPU(h.hv.PCPU(0))
	m := New(h.hv, v0, Config{Period: 100 * sim.Microsecond})
	if _, err := m.WatchCQ(h.guest.ID(), h.scq); err != nil {
		t.Fatal(err)
	}
	m.Start(h.eng)
	h.sendN(t, 20, 65536, 200*sim.Microsecond)
	h.eng.RunUntil(10 * sim.Millisecond)
	m.Stop()
	if dom0.CPUTime() == 0 {
		t.Error("sampling consumed no dom0 CPU")
	}
	// ~100 samples × ≥1µs base cost.
	if dom0.CPUTime() < 80*sim.Microsecond {
		t.Errorf("dom0 CPU = %v, want ≥ 80µs", dom0.CPUTime())
	}
	h.eng.Shutdown()
}

func TestRecvBytesSeparated(t *testing.T) {
	// Completions on the recv side must not count as MTUs sent.
	h := newHarness(t, 64)
	m := New(h.hv, nil, Config{})
	tgt, _ := m.WatchCQ(h.guest.ID(), h.scq)
	// Manually push a recv CQE followed by a send CQE via the public wire
	// path is cumbersome here; instead send one message and sample.
	h.sendN(t, 1, 2048, sim.Microsecond)
	h.eng.RunUntil(sim.Millisecond)
	m.SampleAll(nil)
	u := tgt.Usage()
	if u.MTUsSent != 2 || u.BytesSent != 2048 {
		t.Errorf("usage = %+v", u)
	}
	if u.BytesRecv != 0 {
		t.Errorf("BytesRecv = %d on a send CQ", u.BytesRecv)
	}
	h.eng.Shutdown()
}

func TestZeroActivitySamples(t *testing.T) {
	h := newHarness(t, 64)
	m := New(h.hv, nil, Config{})
	tgt, _ := m.WatchCQ(h.guest.ID(), h.scq)
	for i := 0; i < 10; i++ {
		m.SampleAll(nil)
	}
	u := tgt.Usage()
	if u.Samples != 10 || u.Completions != 0 || u.MTUsSent != 0 {
		t.Errorf("idle usage = %+v", u)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	h := newHarness(t, 64)
	m := New(h.hv, nil, Config{Period: sim.Millisecond})
	m.Start(h.eng)
	m.Start(h.eng) // second start is a no-op
	h.eng.RunUntil(5 * sim.Millisecond)
	m.Stop()
	m.Stop()
	h.eng.RunUntil(6 * sim.Millisecond)
	h.eng.Shutdown()
}

func TestMTUConversionRoundsUp(t *testing.T) {
	h := newHarness(t, 64)
	m := New(h.hv, nil, Config{})
	tgt, _ := m.WatchCQ(h.guest.ID(), h.scq)
	h.sendN(t, 1, 1500, sim.Microsecond) // 1.5KB → 2 MTUs
	h.eng.RunUntil(sim.Millisecond)
	m.SampleAll(nil)
	if got := tgt.Usage().MTUsSent; got != 2 {
		t.Errorf("MTUsSent = %d, want 2", got)
	}
	h.eng.Shutdown()
}

// TestProfileOf checks the windowed profile placement and the rebalancer
// score with: the byte rate over the span since the previous call, the
// same rate again on a same-instant re-poll, the largest send completion as
// BufferSize, and ok == false for a domain IBMon does not watch.
func TestProfileOf(t *testing.T) {
	h := newHarness(t, 256)
	m := New(h.hv, nil, Config{Period: 100 * sim.Microsecond})
	if _, err := m.WatchCQ(h.guest.ID(), h.scq); err != nil {
		t.Fatal(err)
	}
	m.Start(h.eng)
	defer h.eng.Shutdown()

	rate := func(want float64, p Profile) {
		t.Helper()
		if d := p.BytesPerSec/want - 1; d > 1e-9 || d < -1e-9 {
			t.Errorf("BytesPerSec = %.1f, want %.1f", p.BytesPerSec, want)
		}
	}
	// Window 1, [0, 5ms): ten 64 KB sends.
	h.sendN(t, 10, 64<<10, 150*sim.Microsecond)
	h.eng.RunUntil(5 * sim.Millisecond)
	p, ok := m.ProfileOf(h.guest.ID())
	if !ok {
		t.Fatal("watched domain has no profile")
	}
	rate(10*(64<<10)/0.005, p)
	if p.BufferSize != 64<<10 {
		t.Errorf("BufferSize = %d, want %d", p.BufferSize, 64<<10)
	}
	again, _ := m.ProfileOf(h.guest.ID())
	rate(p.BytesPerSec, again)

	// Window 2, [5ms, 10ms): four 16 KB sends around one 128 KB send.
	for i, sz := range []int{16 << 10, 16 << 10, 128 << 10, 16 << 10, 16 << 10} {
		id, sz := uint64(100+i), sz
		h.eng.Schedule(5*sim.Millisecond+sim.Time(i)*200*sim.Microsecond, func() {
			if err := h.qp1.PostSend(hca.SendWR{ID: id, LocalAddr: h.src, LKey: h.mr1.Key(), Len: sz}); err != nil {
				t.Errorf("post %d: %v", id, err)
			}
		})
	}
	h.eng.RunUntil(10 * sim.Millisecond)
	p, _ = m.ProfileOf(h.guest.ID())
	rate((4*(16<<10)+128<<10)/0.005, p)
	if p.BufferSize != 128<<10 {
		t.Errorf("BufferSize = %d, want the largest completion %d", p.BufferSize, 128<<10)
	}

	if _, ok := m.ProfileOf(xen.DomID(99)); ok {
		t.Error("unwatched domain has a profile")
	}
}
