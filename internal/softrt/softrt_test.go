package softrt

import (
	"testing"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/resex"
	"resex/internal/sim"
)

func TestStreamBasics(t *testing.T) {
	tb := cluster.New(cluster.Config{})
	a, b := tb.AddHost(1), tb.AddHost(2)
	st, err := New(tb, a, b, Config{Frames: 50, Period: 2 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	tb.Eng.RunUntil(200 * sim.Millisecond)
	s := st.Stats()
	if s.Sent != 50 || s.Received != 50 {
		t.Fatalf("sent/received %d/%d", s.Sent, s.Received)
	}
	// On an idle fabric a 16KB frame arrives in ~20µs: no misses.
	if s.Missed != 0 {
		t.Errorf("missed %d deadlines on idle fabric", s.Missed)
	}
	if s.MissRate() != 0 {
		t.Errorf("miss rate %v", s.MissRate())
	}
	if m := s.Latency.Mean(); m < 10 || m > 60 {
		t.Errorf("frame latency %.1fµs out of regime", m)
	}
	// Pacing: 50 frames at 2ms → the last send at ~98ms.
	if s.Jitter.Mean() > 5 {
		t.Errorf("idle-fabric jitter %.1fµs", s.Jitter.Mean())
	}
	tb.Eng.Shutdown()
}

func TestStreamDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.FrameSize != 16<<10 || c.Period != 10*sim.Millisecond || c.Deadline != 5*sim.Millisecond {
		t.Errorf("defaults: %+v", c)
	}
}

func TestInterferenceCausesDeadlineMisses(t *testing.T) {
	// A 2MB bulk app sharing the sender's host turns fabric contention
	// into missed deadlines; ResEx/IOShares (fed by the *trading* app's
	// latency reports here being absent, we give the stream a tight
	// deadline) — this test only establishes the interference mechanism.
	run := func(withBulk bool) Stats {
		tb := cluster.New(cluster.Config{})
		a, b := tb.AddHost(1), tb.AddHost(2)
		st, err := New(tb, a, b, Config{
			FrameSize: 64 << 10,
			Period:    2 * sim.Millisecond,
			Deadline:  100 * sim.Microsecond, // tight: contention misses it
		})
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		if withBulk {
			bulk, err := tb.NewApp("bulk", a, b,
				benchex.ServerConfig{BufferSize: 2 << 20, ProcessTime: 2 * sim.Millisecond, PipelineResponses: true},
				benchex.ClientConfig{BufferSize: 2 << 20, Window: 16, Arrivals: benchex.Bursty{Mean: 3700 * sim.Microsecond}, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			bulk.Start()
		}
		tb.Eng.RunUntil(500 * sim.Millisecond)
		s := st.Stats()
		tb.Eng.Shutdown()
		return s
	}
	quiet := run(false)
	noisy := run(true)
	if quiet.MissRate() != 0 {
		t.Fatalf("quiet miss rate %.2f", quiet.MissRate())
	}
	if noisy.MissRate() < 0.2 {
		t.Errorf("noisy miss rate %.2f, want substantial misses", noisy.MissRate())
	}
	if noisy.Jitter.Mean() < 5*quiet.Jitter.Mean() {
		t.Errorf("jitter %.1f → %.1f µs: interference should blow it up",
			quiet.Jitter.Mean(), noisy.Jitter.Mean())
	}
}

func TestResExProtectsStream(t *testing.T) {
	// Managing the bulk VM with IOShares (victim feedback from a collocated
	// trading app, as in the paper's deployment) restores the stream.
	run := func(managed bool) Stats {
		tb := cluster.New(cluster.Config{})
		a, b := tb.AddHost(1), tb.AddHost(2)
		st, err := New(tb, a, b, Config{
			FrameSize: 64 << 10,
			Period:    2 * sim.Millisecond,
			Deadline:  100 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		trading, err := tb.NewApp("trading", a, b,
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{BufferSize: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		bulk, err := tb.NewApp("bulk", a, b,
			benchex.ServerConfig{BufferSize: 2 << 20, ProcessTime: 2 * sim.Millisecond, PipelineResponses: true},
			benchex.ClientConfig{BufferSize: 2 << 20, Window: 16, Arrivals: benchex.Bursty{Mean: 3700 * sim.Microsecond}, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if managed {
			dom0 := a.Dom0VCPU()
			mon := ibmon.New(a.HV, dom0, ibmon.Config{})
			mgr := resex.New(tb.Eng, a.HV, mon, dom0, resex.NewIOShares(), resex.Config{})
			if _, err := mgr.Manage(trading.ServerVM.Dom, trading.Server.SendCQ(), 240); err != nil {
				t.Fatal(err)
			}
			if _, err := mgr.Manage(bulk.ServerVM.Dom, bulk.Server.SendCQ(), 0); err != nil {
				t.Fatal(err)
			}
			benchex.NewAgent(trading.Server, trading.ServerVM.Dom.ID(), mgr).Start()
			mon.Start(tb.Eng)
			mgr.Start()
		}
		st.Start()
		trading.Start()
		bulk.Start()
		tb.Eng.RunUntil(600 * sim.Millisecond)
		s := st.Stats()
		tb.Eng.Shutdown()
		return s
	}
	unmanaged := run(false)
	managed := run(true)
	if unmanaged.MissRate() < 0.2 {
		t.Fatalf("unmanaged miss rate %.2f too low to test", unmanaged.MissRate())
	}
	if managed.MissRate() > unmanaged.MissRate()/2 {
		t.Errorf("IOShares miss rate %.2f vs unmanaged %.2f: expected at least a halving",
			managed.MissRate(), unmanaged.MissRate())
	}
}

func TestStreamDropsAtSourceWhenBacklogged(t *testing.T) {
	// A frozen uplink (rate limit ~0) backs the SQ up; the sender drops at
	// the source rather than stalling its pacing.
	tb := cluster.New(cluster.Config{})
	a, b := tb.AddHost(1), tb.AddHost(2)
	st, err := New(tb, a, b, Config{Period: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st.sqp.SetRateLimit(1) // effectively frozen
	st.Start()
	tb.Eng.RunUntil(100 * sim.Millisecond)
	s := st.Stats()
	if s.Sent > 40 {
		t.Errorf("sender accepted %d frames onto a frozen link (SQ depth is 32)", s.Sent)
	}
	if s.Received != 0 {
		t.Errorf("received %d through a frozen link", s.Received)
	}
	tb.Eng.Shutdown()
}
