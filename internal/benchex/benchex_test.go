package benchex_test

import (
	"testing"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/sim"
)

func newPair(t *testing.T, scfg benchex.ServerConfig, ccfg benchex.ClientConfig) (*cluster.Testbed, *cluster.App) {
	t.Helper()
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, err := tb.NewApp("app", hostA, hostB, scfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb, app
}

func TestConfigDefaults(t *testing.T) {
	tb, app := newPair(t, benchex.ServerConfig{}, benchex.ClientConfig{})
	scfg := app.Server.Config()
	if scfg.BufferSize != 64<<10 || scfg.Name == "" || scfg.CQDepth != 1024 {
		t.Errorf("server defaults: %+v", scfg)
	}
	if scfg.ProcessTime != 90*sim.Microsecond {
		t.Errorf("64KB ProcessTime = %v, want 90µs", scfg.ProcessTime)
	}
	ccfg := app.Client.Config()
	if ccfg.Window != 1 || ccfg.BufferSize != 64<<10 {
		t.Errorf("client defaults: %+v", ccfg)
	}
	tb.Eng.Shutdown()
}

func TestProcessTimeScalesWithBuffer(t *testing.T) {
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 2 << 20},
		benchex.ClientConfig{BufferSize: 2 << 20})
	if got := app.Server.Config().ProcessTime; got != 32*90*sim.Microsecond {
		t.Errorf("2MB ProcessTime = %v, want %v", got, 32*90*sim.Microsecond)
	}
	tb.Eng.Shutdown()
	// Explicit ProcessTime wins.
	tb2, app2 := newPair(t,
		benchex.ServerConfig{BufferSize: 2 << 20, ProcessTime: sim.Millisecond},
		benchex.ClientConfig{BufferSize: 2 << 20})
	if got := app2.Server.Config().ProcessTime; got != sim.Millisecond {
		t.Errorf("explicit ProcessTime = %v", got)
	}
	tb2.Eng.Shutdown()
}

func TestResponsesEchoRequests(t *testing.T) {
	// The server decodes each request out of guest memory and echoes its
	// sequence number and client timestamp back in the response, so every
	// response the client parses matches a request it sent.
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10, Requests: 10, Seed: 7, RecordTimeline: true})
	app.Start()
	tb.Eng.RunUntil(50 * sim.Millisecond)
	tl := app.Client.Stats().Timeline
	if len(tl) != 10 {
		t.Fatalf("received %d responses, want 10", len(tl))
	}
	for i, rec := range tl {
		if rec.Seq != uint64(i+1) {
			t.Errorf("response %d echoes seq %d", i, rec.Seq)
		}
		if rec.Latency <= 0 {
			t.Errorf("response %d: latency %v from echoed timestamp %v", i, rec.Latency, rec.SentAt)
		}
	}
	tb.Eng.Shutdown()
}

func TestBoundedClientSignalsDone(t *testing.T) {
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10, Requests: 5})
	doneAt := sim.Time(-1)
	tb.Eng.Go("waiter", func(p *sim.Proc) {
		app.Client.Done().Wait(p)
		doneAt = p.Now()
	})
	app.Start()
	tb.Eng.RunUntil(100 * sim.Millisecond)
	if doneAt < 0 {
		t.Fatal("Done never broadcast")
	}
	if app.Client.Running() {
		t.Error("client still running after budget")
	}
	if got := app.Client.Stats().Sent; got != 5 {
		t.Errorf("sent %d, want 5", got)
	}
	tb.Eng.Shutdown()
}

func TestWindowedClientKeepsRequestsOutstanding(t *testing.T) {
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10, Window: 4})
	app.Start()
	tb.Eng.RunUntil(50 * sim.Millisecond)
	cs := app.Client.Stats()
	// With 4-deep pipelining the server never idles on PTime: throughput
	// beats the closed-loop (window 1) configuration.
	tb.Eng.Shutdown()

	tb1, app1 := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10, Window: 1})
	app1.Start()
	tb1.Eng.RunUntil(50 * sim.Millisecond)
	cs1 := app1.Client.Stats()
	tb1.Eng.Shutdown()
	if cs.Received <= cs1.Received {
		t.Errorf("window-4 throughput %d ≤ window-1 %d", cs.Received, cs1.Received)
	}
}

func TestWindowedRequestsKeepTheirOwnBytes(t *testing.T) {
	// Four 64 KB requests are posted back to back, so later ones are
	// encoded while earlier ones are still on the wire. The server must
	// still decode each request exactly once, not the latest one again.
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10, RecordTimeline: true},
		benchex.ClientConfig{BufferSize: 64 << 10, Window: 4, Requests: 40})
	app.Start()
	tb.Eng.RunUntil(100 * sim.Millisecond)
	tl := app.Server.Stats().Timeline
	if len(tl) != 40 {
		t.Fatalf("served %d of 40", len(tl))
	}
	seen := map[uint64]bool{}
	for i, rec := range tl {
		if seen[rec.Seq] {
			t.Fatalf("record %d: request %d decoded twice", i, rec.Seq)
		}
		seen[rec.Seq] = true
	}
	tb.Eng.Shutdown()
}

func TestPipelinedServerThroughput(t *testing.T) {
	run := func(pipeline bool) int64 {
		tb, app := newPair(t,
			benchex.ServerConfig{BufferSize: 2 << 20, PipelineResponses: pipeline},
			benchex.ClientConfig{BufferSize: 2 << 20, Window: 4})
		app.Start()
		tb.Eng.RunUntil(200 * sim.Millisecond)
		n := app.Server.Stats().Served
		tb.Eng.Shutdown()
		return n
	}
	blocking := run(false)
	pipelined := run(true)
	if pipelined <= blocking {
		t.Errorf("pipelined served %d ≤ blocking %d", pipelined, blocking)
	}
}

func TestEventDrivenServerCorrectness(t *testing.T) {
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10, EventDriven: true},
		benchex.ClientConfig{BufferSize: 64 << 10, Requests: 40})
	app.Start()
	tb.Eng.RunUntil(100 * sim.Millisecond)
	cs := app.Client.Stats()
	if cs.Received != 40 {
		t.Fatalf("event-driven server served %d/40", cs.Received)
	}
	// Event-driven pays interrupt costs instead of spin time: latency a
	// touch higher than polling, CPU use much lower.
	if m := cs.Latency.Mean(); m < 200 || m > 320 {
		t.Errorf("event-driven latency %.1fµs out of regime", m)
	}
	tb.Eng.Shutdown()
}

func TestEventDrivenBeatsPollingUnderTightCap(t *testing.T) {
	// A capped server that spins burns its whole budget polling; an
	// event-driven one only pays per-wakeup costs, so it serves more.
	run := func(eventDriven bool) int64 {
		tb, app := newPair(t,
			benchex.ServerConfig{BufferSize: 64 << 10, EventDriven: eventDriven},
			benchex.ClientConfig{BufferSize: 64 << 10, Window: 4})
		app.ServerVM.Dom.SetCap(10)
		app.Start()
		tb.Eng.RunUntil(300 * sim.Millisecond)
		served := app.Server.Stats().Served
		tb.Eng.Shutdown()
		return served
	}
	polling := run(false)
	events := run(true)
	// Compute (~92µs) dominates the cycle over the waits (~2×70µs), so the
	// budget saved caps out around 1.5–1.6×; assert a solid margin.
	if float64(events) < 1.3*float64(polling) {
		t.Errorf("capped event-driven served %d, polling %d: expected a clear win", events, polling)
	}
}

func TestEventDrivenUsesLessCPU(t *testing.T) {
	run := func(eventDriven bool) sim.Time {
		tb, app := newPair(t,
			benchex.ServerConfig{BufferSize: 64 << 10, EventDriven: eventDriven},
			benchex.ClientConfig{BufferSize: 64 << 10})
		app.Start()
		tb.Eng.RunUntil(100 * sim.Millisecond)
		cpu := app.ServerVM.Dom.CPUTime()
		tb.Eng.Shutdown()
		return cpu
	}
	polling := run(false)
	events := run(true)
	if float64(events) > 0.7*float64(polling) {
		t.Errorf("event-driven CPU %v not well below polling %v", events, polling)
	}
}

func TestServerStatsDecomposition(t *testing.T) {
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10, RecordTimeline: true},
		benchex.ClientConfig{BufferSize: 64 << 10, Requests: 20})
	app.Start()
	tb.Eng.RunUntil(100 * sim.Millisecond)
	st := app.Server.Stats()
	if st.Served != 20 || len(st.Timeline) != 20 {
		t.Fatalf("served %d timeline %d", st.Served, len(st.Timeline))
	}
	for i, rec := range st.Timeline {
		if rec.CTime <= 0 || rec.WTime <= 0 {
			t.Fatalf("record %d: %+v", i, rec)
		}
		if rec.Total() != rec.PTime+rec.CTime+rec.WTime {
			t.Fatalf("total is not additive: %+v", rec)
		}
		if i > 0 && rec.Reaped <= st.Timeline[i-1].Reaped {
			t.Fatalf("timeline not ordered at %d", i)
		}
	}
	// Aggregates match the timeline.
	var sum float64
	for _, rec := range st.Timeline {
		sum += rec.Total().Microseconds()
	}
	if mean := sum / 20; mean < st.Total.Mean()*0.999 || mean > st.Total.Mean()*1.001 {
		t.Errorf("summary mean %.3f vs timeline mean %.3f", st.Total.Mean(), mean)
	}
	tb.Eng.Shutdown()
}

func TestResetStats(t *testing.T) {
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	app.Start()
	tb.Eng.RunUntil(20 * sim.Millisecond)
	if app.Server.Stats().Served == 0 {
		t.Fatal("no requests before reset")
	}
	app.Server.ResetStats()
	app.Client.ResetStats()
	if app.Server.Stats().Served != 0 || app.Client.Stats().Received != 0 {
		t.Error("reset did not clear")
	}
	tb.Eng.RunUntil(40 * sim.Millisecond)
	if app.Server.Stats().Served == 0 {
		t.Error("no requests after reset")
	}
	tb.Eng.Shutdown()
}

func TestStopIsIdempotentAndHalts(t *testing.T) {
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	app.Start()
	tb.Eng.RunUntil(10 * sim.Millisecond)
	app.Stop()
	app.Stop()
	served := app.Server.Stats().Served
	tb.Eng.RunUntil(30 * sim.Millisecond)
	if got := app.Server.Stats().Served; got != served {
		t.Errorf("server served %d more after Stop", got-served)
	}
	tb.Eng.Shutdown()
}

func TestClientSeedDeterministic(t *testing.T) {
	// A client's workload is a function of its seed: two runs at the same
	// seed produce identical latency sequences.
	run := func() []float64 {
		tb := cluster.New(cluster.Config{})
		hostA, hostB := tb.AddHost(1), tb.AddHost(2)
		app, err := tb.NewApp("app", hostA, hostB,
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{
				BufferSize:     64 << 10,
				Requests:       30,
				Seed:           77,
				RecordTimeline: true,
			})
		if err != nil {
			t.Fatal(err)
		}
		app.Start()
		tb.Eng.RunUntil(100 * sim.Millisecond)
		var lats []float64
		for _, rec := range app.Client.Stats().Timeline {
			lats = append(lats, rec.Latency.Microseconds())
		}
		tb.Eng.Shutdown()
		return lats
	}
	a, b := run(), run()
	if len(a) != 30 || len(b) != 30 {
		t.Fatalf("completed %d/%d of 30", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClientLatencyPositiveAndPlausible(t *testing.T) {
	tb, app := newPair(t,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10, Requests: 100})
	app.Start()
	tb.Eng.RunUntil(100 * sim.Millisecond)
	cs := app.Client.Stats()
	if cs.Latency.Min() < 150 {
		t.Errorf("latency min %.1fµs below physical floor", cs.Latency.Min())
	}
	if cs.Latency.Max() > 1000 {
		t.Errorf("latency max %.1fµs implausible on idle fabric", cs.Latency.Max())
	}
	if cs.Sample.Count() != 100 {
		t.Errorf("sample count %d", cs.Sample.Count())
	}
	tb.Eng.Shutdown()
}

func TestRebindRunningClientFails(t *testing.T) {
	tb, app := newPair(t, benchex.ServerConfig{}, benchex.ClientConfig{})
	app.Start()
	tb.Eng.RunUntil(5 * sim.Millisecond)
	if _, err := app.Client.Rebind(); err == nil {
		t.Error("Rebind of a running client succeeded")
	}
	tb.Eng.Shutdown()
}

func TestRebindReconnects(t *testing.T) {
	// The client side of a server migration: stop, rebind, connect the new
	// QP to a fresh server endpoint and restart. The old QP is gone and
	// requests complete over the new one.
	tb, app := newPair(t, benchex.ServerConfig{}, benchex.ClientConfig{})
	app.Start()
	tb.Eng.RunUntil(10 * sim.Millisecond)
	app.Client.Stop()
	tb.Eng.RunUntil(15 * sim.Millisecond) // the last response lands
	old := app.Client.Endpoint()
	qp, err := app.Client.Rebind()
	if err != nil {
		t.Fatal(err)
	}
	if qp == old || app.Client.Endpoint() != qp {
		t.Fatal("Rebind did not replace the client's QP")
	}
	if app.ClientVM.PD.HCA().QP(old.QPN()) != nil {
		t.Error("old QP still registered with the HCA")
	}
	sqp, err := app.Server.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.ConnectQPs(sqp, qp, tb.Host(1), tb.Host(2)); err != nil {
		t.Fatal(err)
	}
	before := app.Client.Stats().Received
	app.Client.Start()
	tb.Eng.RunUntil(30 * sim.Millisecond)
	if got := app.Client.Stats().Received - before; got < 10 {
		t.Errorf("%d responses after the rebind, want at least 10", got)
	}
	if qp.CompletedRecvs() == 0 {
		t.Error("no response arrived on the new QP")
	}
	tb.Eng.Shutdown()
}
