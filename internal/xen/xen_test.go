package xen

import (
	"testing"

	"resex/internal/sim"
)

// newTestHV returns an engine and a hypervisor with default config.
func newTestHV(t *testing.T) (*sim.Engine, *Hypervisor) {
	t.Helper()
	eng := sim.New()
	return eng, New(eng, Config{})
}

func TestDefaults(t *testing.T) {
	eng, hv := newTestHV(t)
	if hv.NumPCPUs() != 4 {
		t.Errorf("NumPCPUs = %d", hv.NumPCPUs())
	}
	if hv.Dom0() == nil || hv.Dom0().ID() != 0 || hv.Dom0().Name() != "Domain-0" {
		t.Error("dom0 not booted")
	}
	if hv.Engine() != eng {
		t.Error("engine mismatch")
	}
}

func TestCreateDomain(t *testing.T) {
	_, hv := newTestHV(t)
	d := hv.CreateDomain("guest1", 64<<20, 0)
	if d.ID() != 1 {
		t.Errorf("first guest id = %d", d.ID())
	}
	if d.Weight() != 256 {
		t.Errorf("default weight = %d", d.Weight())
	}
	if d.Memory().Size() != 64<<20 {
		t.Errorf("memory size = %d", d.Memory().Size())
	}
	if hv.Domain(1) != d || hv.Domain(99) != nil {
		t.Error("Domain lookup broken")
	}
	if len(hv.Domains()) != 2 {
		t.Errorf("Domains len = %d", len(hv.Domains()))
	}
	if d.Hypervisor() != hv {
		t.Error("Hypervisor backref")
	}
}

func TestUseUncappedTakesExactTime(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	var took sim.Time
	eng.Go("app", func(p *sim.Proc) {
		start := p.Now()
		v.Use(p, 3700*sim.Microsecond)
		took = p.Now() - start
	})
	eng.Run()
	if took != 3700*sim.Microsecond {
		t.Errorf("uncapped Use(3.7ms) took %v", took)
	}
	if d.CPUTime() != 3700*sim.Microsecond {
		t.Errorf("CPUTime = %v", d.CPUTime())
	}
	if v.ConsumedTime() != 3700*sim.Microsecond {
		t.Errorf("vcpu consumed = %v", v.ConsumedTime())
	}
}

func TestUseCappedDutyCycle(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	d.SetCap(10) // 1ms of CPU per 10ms window
	var took sim.Time
	eng.Go("app", func(p *sim.Proc) {
		start := p.Now()
		v.Use(p, 3*sim.Millisecond)
		took = p.Now() - start
	})
	eng.Run()
	// 1ms in window [0,10), 1ms in [10,20), 1ms in [20,30) -> ~21ms.
	if took < 20*sim.Millisecond || took > 22*sim.Millisecond {
		t.Errorf("capped Use(3ms)@10%% took %v, want ~21ms", took)
	}
	if d.CPUTime() != 3*sim.Millisecond {
		t.Errorf("CPUTime = %v, want exactly the work done", d.CPUTime())
	}
}

func TestCapNeverExceeded(t *testing.T) {
	// A CPU-hog capped at various percentages must never consume more than
	// cap% of any run, measured over whole windows.
	for _, cap := range []int{3, 10, 25, 50} {
		eng := sim.New()
		hv := New(eng, Config{})
		d := hv.CreateDomain("hog", 16<<20, 0)
		v := d.AddVCPU(hv.PCPU(1))
		d.SetCap(cap)
		eng.Go("hog", func(p *sim.Proc) {
			for {
				v.Use(p, 500*sim.Microsecond)
			}
		})
		total := 100 * sim.Millisecond
		eng.RunUntil(total)
		got := d.CPUTime()
		want := total * sim.Time(cap) / 100
		if got > want {
			t.Errorf("cap=%d%%: consumed %v > allowed %v", cap, got, want)
		}
		// And the cap should be approximately achieved (within one window's
		// share + one Use chunk of slack).
		slack := CapPeriod*sim.Time(cap)/100 + 500*sim.Microsecond
		if got < want-slack {
			t.Errorf("cap=%d%%: consumed %v, expected close to %v", cap, got, want)
		}
		eng.Shutdown()
	}
}

func TestSetCapClamps(t *testing.T) {
	_, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	d.SetCap(-5)
	if d.Cap() != 0 {
		t.Errorf("cap = %d, want 0", d.Cap())
	}
	d.SetCap(250)
	if d.Cap() != 100 {
		t.Errorf("cap = %d, want 100", d.Cap())
	}
}

func TestSetCapMidRun(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	eng.Go("hog", func(p *sim.Proc) {
		for {
			v.Use(p, sim.Millisecond)
		}
	})
	eng.RunUntil(50 * sim.Millisecond)
	before := d.CPUTime()
	if before < 49*sim.Millisecond {
		t.Fatalf("uncapped hog consumed only %v", before)
	}
	d.SetCap(20)
	eng.RunUntil(150 * sim.Millisecond)
	delta := d.CPUTime() - before
	want := 20 * sim.Millisecond // 20% of the remaining 100ms
	if delta > want+2*sim.Millisecond || delta < want-3*sim.Millisecond {
		t.Errorf("after SetCap(20): consumed %v of 100ms, want ~%v", delta, want)
	}
	// Remove the cap: consumption returns to full rate.
	d.SetCap(0)
	at := d.CPUTime()
	eng.RunUntil(200 * sim.Millisecond)
	if got := d.CPUTime() - at; got < 49*sim.Millisecond {
		t.Errorf("after uncapping consumed %v of 50ms", got)
	}
	eng.Shutdown()
}

func TestWeightedSharing(t *testing.T) {
	eng, hv := newTestHV(t)
	a := hv.CreateDomain("a", 16<<20, 512)
	b := hv.CreateDomain("b", 16<<20, 256)
	va := a.AddVCPU(hv.PCPU(1))
	vb := b.AddVCPU(hv.PCPU(1)) // same PCPU: contention
	hog := func(v *VCPU) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for {
				v.Use(p, 200*sim.Microsecond)
			}
		}
	}
	eng.Go("a", hog(va))
	eng.Go("b", hog(vb))
	eng.RunUntil(300 * sim.Millisecond)
	ca, cb := a.CPUTime(), b.CPUTime()
	if ca+cb < 295*sim.Millisecond {
		t.Errorf("PCPU left idle under load: %v + %v", ca, cb)
	}
	// Stride scheduling at 1ms tick granularity over 10ms windows gives a
	// 7:3 in-window split for 2:1 weights; accept the quantized band.
	ratio := float64(ca) / float64(cb)
	if ratio < 1.6 || ratio > 2.5 {
		t.Errorf("weight 512:256 gave consumption ratio %.2f, want ~2", ratio)
	}
	eng.Shutdown()
}

func TestTwoVCPUsSeparatePCPUsIndependent(t *testing.T) {
	eng, hv := newTestHV(t)
	a := hv.CreateDomain("a", 16<<20, 0)
	b := hv.CreateDomain("b", 16<<20, 0)
	va := a.AddVCPU(hv.PCPU(0))
	vb := b.AddVCPU(hv.PCPU(1))
	var ta, tb sim.Time
	eng.Go("a", func(p *sim.Proc) {
		s := p.Now()
		va.Use(p, 5*sim.Millisecond)
		ta = p.Now() - s
	})
	eng.Go("b", func(p *sim.Proc) {
		s := p.Now()
		vb.Use(p, 5*sim.Millisecond)
		tb = p.Now() - s
	})
	eng.Run()
	if ta != 5*sim.Millisecond || tb != 5*sim.Millisecond {
		t.Errorf("pinned VCPUs interfered: %v, %v", ta, tb)
	}
}

func TestIntraVMSerialization(t *testing.T) {
	// Two guest threads on one VCPU serialize: total elapsed = sum of work.
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	var end1, end2 sim.Time
	eng.Go("t1", func(p *sim.Proc) {
		v.Use(p, 2*sim.Millisecond)
		end1 = p.Now()
	})
	eng.Go("t2", func(p *sim.Proc) {
		v.Use(p, 3*sim.Millisecond)
		end2 = p.Now()
	})
	eng.Run()
	last := end1
	if end2 > last {
		last = end2
	}
	if last != 5*sim.Millisecond {
		t.Errorf("two threads on one VCPU finished at %v, want 5ms total", last)
	}
}

func TestSpinWaitSignalWakes(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	sig := sim.NewSignal(eng)
	ready := false
	eng.Schedule(300*sim.Microsecond, func() {
		ready = true
		sig.Broadcast()
	})
	var busy, elapsed sim.Time
	eng.Go("poller", func(p *sim.Proc) {
		busy, elapsed = v.SpinWait(p, sig, func() bool { return ready })
	})
	eng.Run()
	if elapsed != 300*sim.Microsecond {
		t.Errorf("elapsed = %v, want 300µs", elapsed)
	}
	// Uncapped spinning burns CPU the whole time.
	if busy != elapsed {
		t.Errorf("uncapped busy = %v, elapsed = %v: should be equal", busy, elapsed)
	}
}

func TestSpinWaitImmediateCondition(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	sig := sim.NewSignal(eng)
	var busy, elapsed sim.Time
	eng.Go("poller", func(p *sim.Proc) {
		busy, elapsed = v.SpinWait(p, sig, func() bool { return true })
	})
	eng.Run()
	if busy != 0 || elapsed != 0 {
		t.Errorf("already-true condition: busy=%v elapsed=%v", busy, elapsed)
	}
}

func TestSpinWaitCappedElapsedExceedsBusy(t *testing.T) {
	// A capped poller's wall wait stretches: it only burns CPU in its duty
	// windows, and if the event lands while descheduled it reacts late.
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	d.SetCap(10)
	sig := sim.NewSignal(eng)
	ready := false
	eng.Schedule(5*sim.Millisecond, func() { // mid-window: poller descheduled
		ready = true
		sig.Broadcast()
	})
	var busy, elapsed sim.Time
	eng.Go("poller", func(p *sim.Proc) {
		busy, elapsed = v.SpinWait(p, sig, func() bool { return ready })
	})
	eng.Run()
	if elapsed < 10*sim.Millisecond {
		t.Errorf("capped poller noticed at %v, want >= next window (10ms)", elapsed)
	}
	if busy >= elapsed {
		t.Errorf("capped busy=%v should be well below elapsed=%v", busy, elapsed)
	}
}

func TestCPUTimeAccountingWithSpin(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	sig := sim.NewSignal(eng)
	fired := false
	eng.Schedule(2*sim.Millisecond, func() { fired = true; sig.Broadcast() })
	eng.Go("app", func(p *sim.Proc) {
		v.Use(p, sim.Millisecond)
		v.SpinWait(p, sig, func() bool { return fired })
	})
	eng.Run()
	if d.CPUTime() != 2*sim.Millisecond {
		t.Errorf("CPUTime = %v, want 2ms (1ms compute + 1ms spin)", d.CPUTime())
	}
}

func TestPCPUBusyTime(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(2))
	eng.Go("app", func(p *sim.Proc) { v.Use(p, 4*sim.Millisecond) })
	eng.Run()
	if hv.PCPU(2).BusyTime() != 4*sim.Millisecond {
		t.Errorf("BusyTime = %v", hv.PCPU(2).BusyTime())
	}
	if hv.PCPU(1).BusyTime() != 0 {
		t.Errorf("idle PCPU busy = %v", hv.PCPU(1).BusyTime())
	}
}

func TestShortUseRefundsBudget(t *testing.T) {
	// Many short Uses under a tight cap must not burn budget they didn't
	// consume: 10 × 30µs = 300µs fits exactly in a 3% window (300µs).
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	d.SetCap(3)
	done := 0
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			v.Use(p, 30*sim.Microsecond)
			p.Sleep(10 * sim.Microsecond) // idle gap: VCPU released
			done++
		}
	})
	eng.RunUntil(9 * sim.Millisecond) // still within first window
	if done != 10 {
		t.Errorf("completed %d/10 short uses in first window; grant remainder not refunded", done)
	}
}

func TestMapForeignRange(t *testing.T) {
	_, hv := newTestHV(t)
	d := hv.CreateDomain("g", 1<<20, 0)
	addr := d.Memory().Alloc(64, 8)
	d.Memory().WriteU32(addr, 0xabcd)
	r, err := hv.MapForeignRange(d.ID(), addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadU32(0) != 0xabcd {
		t.Error("introspection does not see guest memory")
	}
	// Mapping is live: later guest writes visible.
	d.Memory().WriteU32(addr, 0x1234)
	if r.ReadU32(0) != 0x1234 {
		t.Error("mapping is not live")
	}
	if _, err := hv.MapForeignRange(DomID(42), 0, 16); err == nil {
		t.Error("mapping unknown domain should fail")
	}
}

func TestUseZeroIsNoop(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	eng.Go("app", func(p *sim.Proc) {
		v.Use(p, 0)
		v.Use(p, -5)
		if p.Now() != 0 {
			t.Errorf("zero Use advanced time to %v", p.Now())
		}
	})
	eng.Run()
}

func TestVCPUString(t *testing.T) {
	_, hv := newTestHV(t)
	d := hv.CreateDomain("guestX", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(0))
	if v.String() != "guestX/v0" {
		t.Errorf("String = %q", v.String())
	}
	if v.Domain() != d || v.PCPU() != hv.PCPU(0) || v.ID() != 0 {
		t.Error("accessors broken")
	}
}

func TestMultiVCPUDomain(t *testing.T) {
	// An SMP guest: two VCPUs on two PCPUs run truly in parallel, and the
	// domain's cap applies per VCPU (as Xen's cap is per-VCPU percent).
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("smp", 16<<20, 0)
	v0 := d.AddVCPU(hv.PCPU(1))
	v1 := d.AddVCPU(hv.PCPU(2))
	if v0.ID() != 0 || v1.ID() != 1 || len(d.VCPUs()) != 2 {
		t.Fatal("VCPU ids")
	}
	var t0, t1 sim.Time
	eng.Go("w0", func(p *sim.Proc) {
		v0.Use(p, 5*sim.Millisecond)
		t0 = p.Now()
	})
	eng.Go("w1", func(p *sim.Proc) {
		v1.Use(p, 5*sim.Millisecond)
		t1 = p.Now()
	})
	eng.Run()
	if t0 != 5*sim.Millisecond || t1 != 5*sim.Millisecond {
		t.Errorf("parallel VCPUs finished at %v/%v, want 5ms each", t0, t1)
	}
	if d.CPUTime() != 10*sim.Millisecond {
		t.Errorf("domain CPU time %v, want 10ms across 2 VCPUs", d.CPUTime())
	}
}

func TestCPUTimeConservation(t *testing.T) {
	// Property: under arbitrary random workloads, per-PCPU consumed time
	// never exceeds elapsed time, and per-domain consumption under a cap
	// never exceeds cap% of elapsed (+1 window of slack).
	eng := sim.New()
	hv := New(eng, Config{NumPCPUs: 3})
	r := sim.NewRand(7)
	type domSpec struct {
		dom *Domain
		cap int
	}
	var specs []domSpec
	for i := 0; i < 5; i++ {
		d := hv.CreateDomain("d", 16<<20, 128+r.Intn(512))
		v := d.AddVCPU(hv.PCPU(i % 3))
		cap := 0
		if i%2 == 1 {
			cap = 5 + r.Intn(60)
		}
		d.SetCap(cap)
		specs = append(specs, domSpec{d, cap})
		vv := v
		eng.Go("w", func(p *sim.Proc) {
			rr := sim.NewRand(int64(i))
			for {
				vv.Use(p, sim.Time(rr.Intn(300)+1)*sim.Microsecond)
				if rr.Float64() < 0.3 {
					p.Sleep(sim.Time(rr.Intn(200)) * sim.Microsecond)
				}
			}
		})
	}
	elapsed := 200 * sim.Millisecond
	eng.RunUntil(elapsed)
	var total sim.Time
	for _, s := range specs {
		got := s.dom.CPUTime()
		total += got
		if s.cap > 0 {
			allowed := elapsed*sim.Time(s.cap)/100 + CapPeriod
			if got > allowed {
				t.Errorf("dom cap=%d consumed %v > allowed %v", s.cap, got, allowed)
			}
		}
	}
	var busy sim.Time
	for i := 0; i < hv.NumPCPUs(); i++ {
		busy += hv.PCPU(i).BusyTime()
		if hv.PCPU(i).BusyTime() > elapsed {
			t.Errorf("PCPU %d busy %v > elapsed %v", i, hv.PCPU(i).BusyTime(), elapsed)
		}
	}
	if total != busy {
		t.Errorf("domain total %v != PCPU busy total %v", total, busy)
	}
	eng.Shutdown()
}

func TestKilledProcReleasesVCPU(t *testing.T) {
	eng, hv := newTestHV(t)
	d := hv.CreateDomain("g", 16<<20, 0)
	v := d.AddVCPU(hv.PCPU(1))
	victim := eng.Go("victim", func(p *sim.Proc) {
		v.Use(p, 100*sim.Millisecond)
	})
	eng.Schedule(sim.Millisecond, func() { victim.Kill() })
	done := false
	eng.Go("next", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		v.Use(p, sim.Millisecond) // must not deadlock on a dead owner
		done = true
	})
	eng.RunUntil(sim.Second)
	if !done {
		t.Error("VCPU not released by killed process")
	}
}
