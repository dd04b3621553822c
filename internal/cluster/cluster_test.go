package cluster

import (
	"fmt"
	"testing"

	"resex/internal/benchex"
	"resex/internal/fabric"
	"resex/internal/sim"
)

func TestTestbedAssembly(t *testing.T) {
	tb := New(Config{})
	a := tb.AddHost(1)
	b := tb.AddHost(2)
	if len(tb.Hosts) != 2 || a.Node != 1 || b.Node != 2 {
		t.Fatal("hosts")
	}
	if a.HCA.Node() != 1 || a.HV.NumPCPUs() != 8 {
		t.Error("host wiring")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate node should panic")
		}
	}()
	tb.AddHost(1)
}

func TestVMPinning(t *testing.T) {
	tb := New(Config{PCPUsPerHost: 3})
	h := tb.AddHost(1)
	v1 := h.NewVM("a")
	v2 := h.NewVM("b")
	if v1.VCPU.PCPU() == v2.VCPU.PCPU() {
		t.Error("VMs share a PCPU")
	}
	if v1.VCPU.PCPU().ID() == 0 || v2.VCPU.PCPU().ID() == 0 {
		t.Error("guest VM given dom0's PCPU")
	}
	d0 := h.Dom0VCPU()
	if d0.PCPU().ID() != 0 {
		t.Error("dom0 VCPU not on PCPU 0")
	}
	if h.Dom0VCPU() != d0 {
		t.Error("Dom0VCPU not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Error("PCPU exhaustion should panic")
		}
	}()
	h.NewVM("c") // only PCPUs 1,2 available for guests
}

func TestBenchExEndToEnd(t *testing.T) {
	tb := New(Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, err := tb.NewApp("app", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10, RecordTimeline: true},
		benchex.ClientConfig{BufferSize: 64 << 10, Requests: 50, RecordTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	tb.Eng.RunUntil(100 * sim.Millisecond)
	ss := app.Server.Stats()
	cs := app.Client.Stats()
	if cs.Sent != 50 || cs.Received != 50 {
		t.Fatalf("client sent/received = %d/%d, want 50/50", cs.Sent, cs.Received)
	}
	if ss.Served != 50 {
		t.Fatalf("server served %d", ss.Served)
	}
	// Base-case calibration (paper: ~209µs for the 64KB configuration).
	mean := ss.Total.Mean()
	if mean < 150 || mean > 280 {
		t.Errorf("base server latency = %.1fµs, want ~200µs", mean)
	}
	// Components are all present and CTime ≈ configured 90µs.
	if c := ss.C.Mean(); c < 85 || c > 110 {
		t.Errorf("CTime = %.1fµs, want ~94µs", c)
	}
	if ss.W.Mean() < 50 || ss.P.Mean() < 10 {
		t.Errorf("W/P = %.1f/%.1f µs implausibly small", ss.W.Mean(), ss.P.Mean())
	}
	// Client end-to-end latency is in the same regime as server service
	// time (they overlap differently: PTime covers the client's turnaround,
	// while the client sees both transfer directions).
	if r := cs.Latency.Mean() / mean; r < 0.7 || r > 1.5 {
		t.Errorf("client latency %.1f vs server %.1f out of regime", cs.Latency.Mean(), mean)
	}
	// Both sides recorded every request.
	if len(ss.Timeline) != 50 || len(cs.Timeline) != 50 {
		t.Errorf("timelines: %d/%d", len(ss.Timeline), len(cs.Timeline))
	}
	// Determinism: latencies are exactly reproducible.
	tb2 := New(Config{})
	a2, b2 := tb2.AddHost(1), tb2.AddHost(2)
	app2, err := tb2.NewApp("app", a2, b2,
		benchex.ServerConfig{BufferSize: 64 << 10, RecordTimeline: true},
		benchex.ClientConfig{BufferSize: 64 << 10, Requests: 50, RecordTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	app2.Start()
	tb2.Eng.RunUntil(100 * sim.Millisecond)
	if got := app2.Server.Stats().Total.Mean(); got != mean {
		t.Errorf("nondeterministic: %.3f vs %.3f", got, mean)
	}
	tb.Eng.Shutdown()
	tb2.Eng.Shutdown()
}

func TestInterferenceRaisesLatency(t *testing.T) {
	// The motivation experiment (Figure 1/2 mechanism): adding a 2MB
	// interfering application raises the 64KB server's latency and jitter;
	// CTime stays flat.
	run := func(withInterferer bool) benchex.ServerStats {
		tb := New(Config{})
		hostA, hostB := tb.AddHost(1), tb.AddHost(2)
		rep, err := tb.NewApp("rep", hostA, hostB,
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{BufferSize: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start()
		if withInterferer {
			intf, err := tb.NewApp("intf", hostA, hostB,
				benchex.ServerConfig{BufferSize: 2 << 20},
				benchex.ClientConfig{BufferSize: 2 << 20, Window: 4})
			if err != nil {
				t.Fatal(err)
			}
			intf.Start()
		}
		tb.Eng.RunUntil(300 * sim.Millisecond)
		s := rep.Server.Stats()
		tb.Eng.Shutdown()
		return s
	}
	base := run(false)
	intf := run(true)
	if base.Served < 500 || intf.Served < 100 {
		t.Fatalf("too few requests: %d / %d", base.Served, intf.Served)
	}
	ratio := intf.Total.Mean() / base.Total.Mean()
	if ratio < 1.25 || ratio > 3.5 {
		t.Errorf("interference ratio = %.2f (%.1f → %.1f µs), want 1.25–3.5×",
			ratio, base.Total.Mean(), intf.Total.Mean())
	}
	// Jitter rises (Figure 1's spread).
	if intf.Total.StdDev() < 2*base.Total.StdDev() {
		t.Errorf("stddev %.1f → %.1f: interference should widen the distribution",
			base.Total.StdDev(), intf.Total.StdDev())
	}
	// CTime immune (Figure 2).
	dc := intf.C.Mean() / base.C.Mean()
	if dc > 1.1 || dc < 0.9 {
		t.Errorf("CTime changed %.2f× under interference; must stay flat", dc)
	}
	// WTime takes the hit.
	if intf.W.Mean() < 1.4*base.W.Mean() {
		t.Errorf("WTime %.1f → %.1f: expected the main congestion impact",
			base.W.Mean(), intf.W.Mean())
	}
}

func TestCapThrottlesInterferer(t *testing.T) {
	// Figure 4's mechanism: capping the 2MB VM's CPU restores the 64KB
	// VM's latency toward base.
	run := func(cap int) float64 {
		tb := New(Config{})
		hostA, hostB := tb.AddHost(1), tb.AddHost(2)
		rep, err := tb.NewApp("rep", hostA, hostB,
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{BufferSize: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		intf, err := tb.NewApp("intf", hostA, hostB,
			benchex.ServerConfig{BufferSize: 2 << 20},
			benchex.ClientConfig{BufferSize: 2 << 20, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		if cap > 0 {
			intf.ServerVM.Dom.SetCap(cap)
		}
		rep.Start()
		intf.Start()
		tb.Eng.RunUntil(300 * sim.Millisecond)
		m := rep.Server.Stats().Total.Mean()
		tb.Eng.Shutdown()
		return m
	}
	uncapped := run(0)
	capped25 := run(25)
	capped3 := run(3)
	if !(capped3 < capped25 && capped25 < uncapped) {
		t.Errorf("latency not monotone in cap: uncapped %.1f, 25%% %.1f, 3%% %.1f",
			uncapped, capped25, capped3)
	}
	// cap = 100/BufferRatio (=3 for 2MB/64KB) restores near-base latency.
	if capped3 > 1.25*210 {
		t.Errorf("cap-by-buffer-ratio latency %.1fµs, want near base (~210µs)", capped3)
	}
}

func TestFIFODisciplineWorsensInterference(t *testing.T) {
	run := func(d fabric.Discipline) float64 {
		tb := New(Config{Discipline: d})
		hostA, hostB := tb.AddHost(1), tb.AddHost(2)
		rep, _ := tb.NewApp("rep", hostA, hostB,
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{BufferSize: 64 << 10})
		intf, _ := tb.NewApp("intf", hostA, hostB,
			benchex.ServerConfig{BufferSize: 2 << 20},
			benchex.ClientConfig{BufferSize: 2 << 20, Window: 4})
		rep.Start()
		intf.Start()
		tb.Eng.RunUntil(200 * sim.Millisecond)
		m := rep.Server.Stats().Total.Mean()
		tb.Eng.Shutdown()
		return m
	}
	rr := run(fabric.RoundRobin)
	fifo := run(fabric.FIFO)
	if fifo < rr*1.5 {
		t.Errorf("FIFO latency %.1fµs vs RR %.1fµs: head-of-line blocking should hurt more", fifo, rr)
	}
}

func TestOpenLoopPacing(t *testing.T) {
	tb := New(Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, err := tb.NewApp("slow", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10, Arrivals: benchex.Paced{Every: 10 * sim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	tb.Eng.RunUntil(105 * sim.Millisecond)
	got := app.Client.Stats().Sent
	if got < 10 || got > 12 {
		t.Errorf("paced client sent %d in 105ms at 10ms interval, want ~11", got)
	}
	tb.Eng.Shutdown()
}

func TestMultipleClientsPerServer(t *testing.T) {
	// The paper's exchange model: several clients post transactions to one
	// trading server, served FCFS through the shared recv CQ.
	tb := New(Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, err := tb.NewApp("exch", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10, Requests: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var extras []*benchex.Client
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("exch-client%d", i+2)
		vm := hostB.NewVM(name + "-vm")
		c, err := benchex.NewClient(tb.Eng, vm.VCPU, vm.PD,
			benchex.ClientConfig{Name: name, BufferSize: 64 << 10, Requests: 50, Seed: int64(i + 10)})
		if err != nil {
			t.Fatal(err)
		}
		sqp, err := app.Server.NewEndpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := ConnectQPs(sqp, c.Endpoint(), hostA, hostB); err != nil {
			t.Fatal(err)
		}
		extras = append(extras, c)
	}
	app.Start()
	for _, c := range extras {
		c.Start()
	}
	tb.Eng.RunUntil(200 * sim.Millisecond)
	if got := app.Client.Stats().Received; got != 50 {
		t.Errorf("primary client received %d/50", got)
	}
	for i, c := range extras {
		if got := c.Stats().Received; got != 50 {
			t.Errorf("extra client %d received %d/50", i, got)
		}
	}
	if served := app.Server.Stats().Served; served != 150 {
		t.Errorf("server served %d, want 150", served)
	}
	// Three competing clients queue at the server: latency above solo base.
	if m := app.Client.Stats().Latency.Mean(); m < 240 {
		t.Errorf("3-client latency %.1f suspiciously at solo level", m)
	}
	tb.Eng.Shutdown()
}

func TestThreeHostCluster(t *testing.T) {
	// The substrate generalizes past the paper's two-machine testbed:
	// three hosts, apps criss-crossing between them, all traffic conserved.
	tb := New(Config{})
	h1, h2, h3 := tb.AddHost(1), tb.AddHost(2), tb.AddHost(3)
	apps := []*App{}
	for _, pair := range [][2]*Host{{h1, h2}, {h2, h3}, {h3, h1}} {
		app, err := tb.NewApp("x", pair[0], pair[1],
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{BufferSize: 64 << 10, Requests: 40})
		if err != nil {
			t.Fatal(err)
		}
		app.Start()
		apps = append(apps, app)
	}
	tb.Eng.RunUntil(100 * sim.Millisecond)
	for i, app := range apps {
		cs := app.Client.Stats()
		if cs.Received != 40 {
			t.Errorf("app %d received %d/40", i, cs.Received)
		}
		// Cross-host traffic with no shared bottleneck stays at base.
		if m := app.Server.Stats().Total.Mean(); m < 150 || m > 280 {
			t.Errorf("app %d latency %.1f", i, m)
		}
	}
	tb.Eng.Shutdown()
}

func TestFourHostPrebuiltTopology(t *testing.T) {
	// Config.Hosts pre-builds the fleet-scale topology the placement layer
	// runs on: four hosts off one switch, a ring of apps plus both
	// diagonals, and PCPUs recycled deterministically through RemoveVM.
	tb := New(Config{Hosts: 4})
	if len(tb.Hosts) != 4 {
		t.Fatalf("hosts = %d", len(tb.Hosts))
	}
	pairs := [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {1, 3}, {2, 4}}
	apps := []*App{}
	for _, pr := range pairs {
		app, err := tb.NewApp(fmt.Sprintf("x%d%d", pr[0], pr[1]), tb.Host(pr[0]), tb.Host(pr[1]),
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{BufferSize: 64 << 10, Requests: 40})
		if err != nil {
			t.Fatal(err)
		}
		app.Start()
		apps = append(apps, app)
	}
	tb.Eng.RunUntil(100 * sim.Millisecond)
	for i, app := range apps {
		if cs := app.Client.Stats(); cs.Received != 40 {
			t.Errorf("app %d received %d/40", i, cs.Received)
		}
		// Every host carries two servers plus a client VM, so means sit
		// above the ~233µs base but well under the interference regime.
		if m := app.Server.Stats().Total.Mean(); m < 150 || m > 450 {
			t.Errorf("app %d latency %.1f", i, m)
		}
	}

	// RemoveVM returns the PCPU to the free pool and the next guest reuses
	// it (placement relies on this to re-bind migrated VMs).
	h := tb.Host(4)
	free := h.FreePCPUs()
	vm := h.NewVM("tmp")
	pcpu := vm.VCPU.PCPU().ID()
	h.RemoveVM(vm)
	if got := h.FreePCPUs(); got != free {
		t.Errorf("free PCPUs %d after remove, want %d", got, free)
	}
	if vm2 := h.NewVM("tmp2"); vm2.VCPU.PCPU().ID() != pcpu {
		t.Errorf("PCPU %d not reused, got %d", pcpu, vm2.VCPU.PCPU().ID())
	}
	tb.Eng.Shutdown()
}

func TestAgentReporting(t *testing.T) {
	tb := New(Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, err := tb.NewApp("app", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var reports []benchex.LatencyReport
	sink := sinkFunc(func(r benchex.LatencyReport) { reports = append(reports, r) })
	agent := benchex.NewAgent(app.Server, app.ServerVM.Dom.ID(), sink)
	app.Start()
	agent.Start()
	tb.Eng.RunUntil(50 * sim.Millisecond)
	agent.Stop()
	if len(reports) < 20 {
		t.Fatalf("got %d reports in 50ms at 1ms period", len(reports))
	}
	var count int64
	for _, r := range reports {
		count += r.Count
		if r.Mean <= 0 || r.Domain != app.ServerVM.Dom.ID() {
			t.Fatalf("bad report %+v", r)
		}
	}
	if served := app.Server.Stats().Served; count < served-10 || count > served {
		t.Errorf("reports covered %d of %d served", count, served)
	}
	if agent.Reports() != int64(len(reports)) {
		t.Error("report counter mismatch")
	}
	tb.Eng.Shutdown()
}

type sinkFunc func(benchex.LatencyReport)

func (f sinkFunc) LatencyReport(r benchex.LatencyReport) { f(r) }
