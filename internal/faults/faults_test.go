package faults

import (
	"fmt"
	"reflect"
	"testing"

	"resex/internal/fabric"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/ibmon"
	"resex/internal/sim"
	"resex/internal/xen"
)

// harness is one hypervisor-backed host (node 1) with a guest whose CQ the
// monitor watches, plus a remote peer (node 2) whose posted receive buffers
// terminate its SENDs.
type harness struct {
	eng  *sim.Engine
	hv   *xen.Hypervisor
	gst  *xen.Domain
	hca1 *hca.HCA
	up   *fabric.Link
	down *fabric.Link
	mon  *ibmon.Monitor
	qp   *hca.QP
	scq  *hca.CQ
	src  guestmem.Addr
	mr1  *hca.MR
}

func newHarness(t *testing.T, cqDepth int) *harness {
	t.Helper()
	eng := sim.New()
	hv := xen.New(eng, xen.Config{})
	h := &harness{eng: eng, hv: hv}
	h.gst = hv.CreateDomain("guest", 64<<20, 0)

	h.hca1 = hca.New(eng, hca.Config{Node: 1})
	hca2 := hca.New(eng, hca.Config{Node: 2})
	sw := fabric.NewSwitch(eng, 100)
	hcas := map[int]*hca.HCA{1: h.hca1, 2: hca2}
	for n, hc := range hcas {
		hc.SetPeerResolver(func(n int) *hca.HCA { return hcas[n] })
		up := fabric.NewLink(eng, fmt.Sprintf("up%d", n), 1e9, 100, fabric.RoundRobin, sw.Inject)
		hc.SetUplink(up)
		hcc := hc
		down := fabric.NewLink(eng, fmt.Sprintf("down%d", n), 1e9, 100, fabric.RoundRobin, hcc.Deliver)
		sw.AttachNode(n, down)
		if n == 1 {
			h.up, h.down = up, down
		}
	}
	pd1 := h.hca1.AllocPD(h.gst.Memory())
	mem2 := guestmem.NewSpace(64 << 20)
	pd2 := hca2.AllocPD(mem2)

	h.scq = pd1.CreateCQ(cqDepth)
	rcq1 := pd1.CreateCQ(cqDepth)
	scq2, rcq2 := pd2.CreateCQ(4096), pd2.CreateCQ(4096)
	h.qp = pd1.CreateQP(h.scq, rcq1, 512, 512)
	qp2 := pd2.CreateQP(scq2, rcq2, 512, 512)
	if err := h.qp.Connect(2, qp2.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qp2.Connect(1, h.qp.QPN()); err != nil {
		t.Fatal(err)
	}
	h.src = h.gst.Memory().Alloc(4<<20, 64)
	dst := mem2.Alloc(4<<20, 64)
	h.mr1, _ = pd1.RegisterMR(h.src, 4<<20, 0)
	mr2, _ := pd2.RegisterMR(dst, 4<<20, hca.AccessLocalWrite)
	// One receive per send a test makes, so no SEND waits for a buffer.
	for i := 0; i < 512; i++ {
		if err := qp2.PostRecv(hca.RecvWR{ID: uint64(i), Addr: dst, LKey: mr2.Key(), Len: 4 << 20}); err != nil {
			t.Fatal(err)
		}
	}

	h.mon = ibmon.New(hv, nil, ibmon.Config{})
	return h
}

func (h *harness) ports() HostPorts {
	return HostPorts{Node: 1, Uplink: h.up, Downlink: h.down, HCA: h.hca1, Mon: h.mon}
}

// send posts one SEND of sz bytes at time at.
func (h *harness) send(t *testing.T, at sim.Time, sz int) {
	t.Helper()
	h.eng.Schedule(at, func() {
		err := h.qp.PostSend(hca.SendWR{LocalAddr: h.src, LKey: h.mr1.Key(), Len: sz})
		if err != nil {
			t.Errorf("post at %v: %v", at, err)
		}
	})
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	cfg := GenConfig{
		Hosts: []int{1, 2, 3}, Start: 50 * sim.Millisecond,
		Horizon: sim.Second, StormsPerSec: 20, FlapEvery: 3,
	}
	a := Generate(7, cfg)
	b := Generate(7, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("no storms generated")
	}
	for _, e := range a.Events {
		if e.At < cfg.Start || e.At >= cfg.Horizon+sim.Second {
			t.Errorf("event %v at %v outside window", e.Kind, e.At)
		}
	}
	if reflect.DeepEqual(a, Generate(8, cfg)) {
		t.Error("different seeds produced the same schedule")
	}
	kinds := map[Kind]int{}
	for _, e := range a.Events {
		kinds[e.Kind]++
	}
	for _, k := range []Kind{LinkDegrade, TelemetryBlackout, HCAStall, MapInvalidate, LinkFlap, MigrationFail} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in a 20/s schedule", k)
		}
	}
}

func TestLinkDegradeAppliesAndNests(t *testing.T) {
	h := newHarness(t, 64)
	inj := NewInjector(h.eng)
	inj.AttachHost(h.ports())
	var s Schedule
	s.Add(Event{At: 10 * sim.Millisecond, Kind: LinkDegrade, Host: 1,
		Duration: 20 * sim.Millisecond, Factor: 0.5})
	s.Add(Event{At: 20 * sim.Millisecond, Kind: LinkDegrade, Host: 1,
		Duration: 20 * sim.Millisecond, Factor: 0.25})
	inj.Arm(s)

	probe := func(at sim.Time, want float64) {
		h.eng.Schedule(at, func() {
			if got := h.up.Degrade(); got != want {
				t.Errorf("t=%v uplink degrade = %v, want %v", at, got, want)
			}
			if got := h.down.Degrade(); got != want {
				t.Errorf("t=%v downlink degrade = %v, want %v", at, got, want)
			}
		})
	}
	probe(5*sim.Millisecond, 1)
	probe(15*sim.Millisecond, 0.5)
	probe(25*sim.Millisecond, 0.25)
	// First event's restore at t=30 must not heal the link while the second
	// is still active (nesting), only the last restore does.
	probe(35*sim.Millisecond, 0.25)
	probe(45*sim.Millisecond, 1)
	h.eng.RunUntil(50 * sim.Millisecond)
	if inj.Active() != 0 || inj.Pending() != 0 {
		t.Errorf("injector not drained: active=%d pending=%d", inj.Active(), inj.Pending())
	}
	if len(inj.Fired()) != 2 {
		t.Errorf("fired %d events, want 2", len(inj.Fired()))
	}
}

func TestLinkDegradeSlowsTransfersAndFlapParksThem(t *testing.T) {
	// Baseline: one 1MB send on a healthy 1 GB/s link.
	elapsed := func(prep func(h *harness, inj *Injector)) sim.Time {
		h := newHarness(t, 64)
		inj := NewInjector(h.eng)
		inj.AttachHost(h.ports())
		prep(h, inj)
		h.send(t, sim.Millisecond, 1<<20)
		var done sim.Time
		h.eng.Go("reap", func(p *sim.Proc) {
			for {
				if _, ok := h.scq.Poll(); ok {
					done = h.eng.Now()
					return
				}
				h.scq.Signal().Wait(p)
			}
		})
		h.eng.RunUntil(sim.Second)
		if done == 0 {
			t.Fatal("transfer never completed")
		}
		return done
	}
	base := elapsed(func(h *harness, inj *Injector) {})
	degraded := elapsed(func(h *harness, inj *Injector) {
		var s Schedule
		s.Add(Event{At: 0, Kind: LinkDegrade, Host: 1, Duration: sim.Second, Factor: 0.5})
		inj.Arm(s)
	})
	// Half the bandwidth must roughly double the serialization-dominated
	// transfer time.
	if degraded < base*3/2 {
		t.Errorf("degrade to 0.5 only stretched %v to %v", base, degraded)
	}
	flapped := elapsed(func(h *harness, inj *Injector) {
		var s Schedule
		s.Add(Event{At: 0, Kind: LinkFlap, Host: 1, Duration: 100 * sim.Millisecond})
		inj.Arm(s)
	})
	// The packet sent at 1ms parks until the link returns at 100ms.
	if flapped < 100*sim.Millisecond {
		t.Errorf("flapped transfer finished at %v, before the link returned", flapped)
	}
}

func TestHCAStallForcesCQOverrun(t *testing.T) {
	const depth = 8
	h := newHarness(t, depth)
	inj := NewInjector(h.eng)
	inj.AttachHost(h.ports())
	var s Schedule
	s.Add(Event{At: sim.Millisecond, Kind: HCAStall, Host: 1, Duration: 40 * sim.Millisecond})
	inj.Arm(s)
	// Post 3x the CQ depth inside the stall window: completions buffer in
	// the adapter and replay as one burst on resume, overrunning the ring.
	for i := 0; i < 3*depth; i++ {
		h.send(t, 2*sim.Millisecond+sim.Time(i)*100*sim.Microsecond, 4<<10)
	}
	h.eng.Schedule(30*sim.Millisecond, func() {
		if !h.scq.Stalled() {
			t.Error("CQ not stalled inside the window")
		}
		if h.scq.Overruns() != 0 {
			t.Error("overrun before resume")
		}
	})
	h.eng.RunUntil(100 * sim.Millisecond)
	if h.scq.Stalled() {
		t.Error("CQ still stalled after the window")
	}
	if h.scq.Overruns() == 0 {
		t.Error("burst replay of 3x depth completions did not overrun the CQ")
	}
}

func TestBlackoutDropsConfidenceThenRecovers(t *testing.T) {
	h := newHarness(t, 256)
	tgt, err := h.mon.WatchCQ(h.gst.ID(), h.scq)
	if err != nil {
		t.Fatal(err)
	}
	h.mon.Start(h.eng)
	inj := NewInjector(h.eng)
	inj.AttachHost(h.ports())
	var s Schedule
	s.Add(Event{At: 50 * sim.Millisecond, Kind: TelemetryBlackout, Host: 1,
		Duration: 50 * sim.Millisecond})
	inj.Arm(s)
	// Steady traffic throughout.
	for i := 0; i < 180; i++ {
		h.send(t, sim.Time(i)*sim.Millisecond, 16<<10)
	}
	h.eng.Go("reap", func(p *sim.Proc) {
		for {
			h.scq.Drain()
			h.scq.Signal().Wait(p)
		}
	})
	h.eng.Schedule(40*sim.Millisecond, func() {
		if c := tgt.Confidence(); c < 0.9 {
			t.Errorf("pre-blackout confidence %v, want ~1", c)
		}
		if h.mon.Health() != ibmon.HealthOK {
			t.Errorf("pre-blackout health %v", h.mon.Health())
		}
	})
	h.eng.Schedule(95*sim.Millisecond, func() {
		if c := tgt.Confidence(); c > 0.1 {
			t.Errorf("confidence %v after 45ms of blackout, want ~0", c)
		}
		if h.mon.Health() != ibmon.HealthBlackout {
			t.Errorf("health %v during blackout", h.mon.Health())
		}
		if h.mon.BlackoutPasses() == 0 {
			t.Error("no blackout passes counted")
		}
	})
	h.eng.RunUntil(180 * sim.Millisecond)
	if c := tgt.Confidence(); c < 0.9 {
		t.Errorf("confidence %v 80ms after blackout end, want recovered", c)
	}
	if h.mon.Health() != ibmon.HealthOK {
		t.Errorf("health %v after recovery", h.mon.Health())
	}
}

func TestMapInvalidateRemapsWithBackoff(t *testing.T) {
	h := newHarness(t, 256)
	tgt, err := h.mon.WatchCQ(h.gst.ID(), h.scq)
	if err != nil {
		t.Fatal(err)
	}
	h.mon.Start(h.eng)
	inj := NewInjector(h.eng)
	inj.AttachHost(h.ports())
	var s Schedule
	s.Add(Event{At: 20 * sim.Millisecond, Kind: MapInvalidate, Host: 1,
		Duration: 40 * sim.Millisecond}) // Dom 0 = every watched domain
	inj.Arm(s)
	for i := 0; i < 100; i++ {
		h.send(t, sim.Time(i)*sim.Millisecond, 16<<10)
	}
	h.eng.Go("reap", func(p *sim.Proc) {
		for {
			h.scq.Drain()
			h.scq.Signal().Wait(p)
		}
	})
	h.eng.Schedule(50*sim.Millisecond, func() {
		if !tgt.Invalid() {
			t.Error("target not invalid inside the revocation window")
		}
		if tgt.RemapTries() == 0 {
			t.Error("no remap retries inside the window")
		}
	})
	h.eng.RunUntil(150 * sim.Millisecond)
	if tgt.Invalid() {
		t.Error("target still invalid after the window (remap never succeeded)")
	}
	if h.mon.Invalidations() == 0 {
		t.Error("invalidation not counted")
	}
	// Backoff doubling means far fewer retries than sampling passes during
	// the 40ms window (1ms sampling would mean ~40 naive retries).
	if n := tgt.RemapTries(); n > 12 {
		t.Errorf("%d remap retries in a 40ms window; backoff not applied", n)
	}
	if c := tgt.Confidence(); c < 0.9 {
		t.Errorf("confidence %v after remap recovery, want ~1", c)
	}
}

func TestAbortPreCopyWindowAndAttachValidation(t *testing.T) {
	h := newHarness(t, 64)
	inj := NewInjector(h.eng)
	inj.AttachHost(h.ports())
	var s Schedule
	s.Add(Event{At: 10 * sim.Millisecond, Kind: MigrationFail, Host: 1,
		Duration: 20 * sim.Millisecond})
	inj.Arm(s)
	probe := func(at sim.Time, want bool) {
		h.eng.Schedule(at, func() {
			if got := inj.AbortPreCopy(1); got != want {
				t.Errorf("AbortPreCopy(1) at %v = %v, want %v", at, got, want)
			}
			if inj.AbortPreCopy(99) {
				t.Error("unattached node reported a failure window")
			}
		})
	}
	probe(5*sim.Millisecond, false)
	probe(15*sim.Millisecond, true)
	probe(29*sim.Millisecond, true)
	probe(31*sim.Millisecond, false)
	h.eng.RunUntil(40 * sim.Millisecond)

	defer func() {
		if recover() == nil {
			t.Error("arming an event for an unattached node did not panic")
		}
	}()
	var bad Schedule
	bad.Add(Event{At: 50 * sim.Millisecond, Kind: LinkDegrade, Host: 7, Duration: 1, Factor: 0.5})
	inj.Arm(bad)
}

// TestInjectorReplayDeterministic runs the same faulty scenario twice and
// demands an identical fingerprint: fired order, counter values, and the
// exact completion times of traffic threaded through the faults.
func TestInjectorReplayDeterministic(t *testing.T) {
	run := func() string {
		h := newHarness(t, 32)
		tgt, err := h.mon.WatchCQ(h.gst.ID(), h.scq)
		if err != nil {
			t.Fatal(err)
		}
		h.mon.Start(h.eng)
		inj := NewInjector(h.eng)
		inj.AttachHost(h.ports())
		inj.Arm(Generate(42, GenConfig{
			Hosts: []int{1}, Start: 10 * sim.Millisecond,
			Horizon: 400 * sim.Millisecond, StormsPerSec: 30,
			FlapEvery: 2,
		}))
		for i := 0; i < 300; i++ {
			h.send(t, sim.Time(i)*sim.Millisecond, 32<<10)
		}
		var reaps []sim.Time
		h.eng.Go("reap", func(p *sim.Proc) {
			for {
				for n := h.scq.Drain(); n > 0; n-- {
					reaps = append(reaps, h.eng.Now())
				}
				h.scq.Signal().Wait(p)
			}
		})
		h.eng.RunUntil(500 * sim.Millisecond)
		fp := fmt.Sprintf("fired=%d overruns=%d invalidations=%d blackoutPasses=%d conf=%.6f reaps=%d",
			len(inj.Fired()), h.scq.Overruns(), h.mon.Invalidations(),
			h.mon.BlackoutPasses(), tgt.Confidence(), len(reaps))
		for _, e := range inj.Fired() {
			fp += fmt.Sprintf("|%v@%v", e.Kind, e.At)
		}
		for i, at := range reaps {
			if i%37 == 0 {
				fp += fmt.Sprintf("|r%d@%v", i, at)
			}
		}
		return fp
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay diverged:\n  %s\n  %s", a, b)
	}
}
