package fabric

import (
	"testing"

	"resex/internal/sim"
)

const gbps1 = 1e9 // 1 GB/s payload rate, as in the paper's 8 Gbps link

func TestDisciplineString(t *testing.T) {
	if RoundRobin.String() != "rr" || FIFO.String() != "fifo" {
		t.Error("discipline names")
	}
	if Discipline(9).String() != "discipline(9)" {
		t.Error("unknown discipline name")
	}
}

func TestLinkSerializationTime(t *testing.T) {
	eng := sim.New()
	var arrived sim.Time
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) { arrived = eng.Now() })
	l.Send(&Packet{Flow: 1, Bytes: 1024})
	eng.Run()
	if arrived != 1024 {
		t.Errorf("1KB at 1GB/s arrived at %v, want 1024ns", arrived)
	}
}

// TestLinkSerializationFollowsDegrade: a degrade between two equal packets
// changes the second one's wire time to exactly DurationOfBytes at the
// degraded rate, and healing changes it back.
func TestLinkSerializationFollowsDegrade(t *testing.T) {
	const bps, size = 3e9 / 7, 2048
	eng := sim.New()
	var arrivals []sim.Time
	l := NewLink(eng, "l", bps, 0, RoundRobin, func(p *Packet) { arrivals = append(arrivals, eng.Now()) })
	wire := []sim.Time{
		sim.DurationOfBytes(size, bps),
		sim.DurationOfBytes(size, bps*0.5),
		sim.DurationOfBytes(size, bps),
	}
	for i, factor := range []float64{1, 0.5, 1} {
		l.SetDegrade(factor)
		start := eng.Now()
		l.Send(&Packet{Flow: 1, Bytes: size, Index: i})
		eng.Run()
		if len(arrivals) != i+1 {
			t.Fatalf("packet %d: %d arrivals", i, len(arrivals))
		}
		if got := arrivals[i] - start; got != wire[i] {
			t.Errorf("packet %d at degrade %v took %v, want DurationOfBytes = %v", i, factor, got, wire[i])
		}
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	eng := sim.New()
	var arrived sim.Time
	l := NewLink(eng, "l", gbps1, 500, RoundRobin, func(p *Packet) { arrived = eng.Now() })
	l.Send(&Packet{Flow: 1, Bytes: 1024})
	eng.Run()
	if arrived != 1524 {
		t.Errorf("arrival at %v, want serialization+prop = 1524ns", arrived)
	}
}

func TestLinkBackToBackPipeline(t *testing.T) {
	eng := sim.New()
	var arrivals []sim.Time
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) { arrivals = append(arrivals, eng.Now()) })
	for i := 0; i < 64; i++ {
		l.Send(&Packet{Flow: 1, Bytes: 1024, Index: i})
	}
	eng.Run()
	if len(arrivals) != 64 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	// 64KB message: last MTU completes at 64 × 1024ns.
	if last := arrivals[63]; last != 64*1024 {
		t.Errorf("64KB finished at %v, want %v", last, sim.Time(64*1024))
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// A 64-MTU flow sharing with a long 2048-MTU flow finishes in ~2× its
	// solo time, not after the whole large flow (which FIFO would cause).
	eng := sim.New()
	var smallDone, bigDone sim.Time
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) {
		if p.Last {
			if p.Flow == 1 {
				smallDone = eng.Now()
			} else {
				bigDone = eng.Now()
			}
		}
	})
	for i := 0; i < 2048; i++ {
		l.Send(&Packet{Flow: 2, Bytes: 1024, Index: i, Last: i == 2047})
	}
	for i := 0; i < 64; i++ {
		l.Send(&Packet{Flow: 1, Bytes: 1024, Index: i, Last: i == 63})
	}
	eng.Run()
	solo := sim.Time(64 * 1024)
	if smallDone < 2*solo-2048 || smallDone > 2*solo+2048 {
		t.Errorf("interfered small flow done at %v, want ~2× solo (%v)", smallDone, 2*solo)
	}
	if bigDone != 2112*1024 {
		t.Errorf("big flow done at %v, want full-link completion %v", bigDone, sim.Time(2112*1024))
	}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	eng := sim.New()
	var smallDone sim.Time
	l := NewLink(eng, "l", gbps1, 0, FIFO, func(p *Packet) {
		if p.Flow == 1 && p.Last {
			smallDone = eng.Now()
		}
	})
	for i := 0; i < 2048; i++ {
		l.Send(&Packet{Flow: 2, Bytes: 1024})
	}
	for i := 0; i < 64; i++ {
		l.Send(&Packet{Flow: 1, Bytes: 1024, Last: i == 63})
	}
	eng.Run()
	// FIFO: the small flow waits behind the entire 2MB burst.
	want := sim.Time(2112 * 1024)
	if smallDone != want {
		t.Errorf("FIFO small flow done at %v, want %v", smallDone, want)
	}
}

func TestRoundRobinManyFlows(t *testing.T) {
	eng := sim.New()
	counts := map[uint32]int{}
	var order []uint32
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) {
		counts[p.Flow]++
		order = append(order, p.Flow)
	})
	for f := uint32(1); f <= 3; f++ {
		for i := 0; i < 10; i++ {
			l.Send(&Packet{Flow: f, Bytes: 1024})
		}
	}
	eng.Run()
	for f := uint32(1); f <= 3; f++ {
		if counts[f] != 10 {
			t.Errorf("flow %d delivered %d", f, counts[f])
		}
	}
	// Fair service: in any prefix, no flow is ahead of another by more than
	// a startup transient of 2 packets.
	run := map[uint32]int{}
	for i, f := range order {
		run[f]++
		lo, hi := run[order[0]], run[order[0]]
		for _, n := range run {
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if len(run) == 3 && hi-lo > 2 {
			t.Errorf("unfair at delivery %d: counts %v", i, run)
			break
		}
	}
}

func TestLinkStats(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) {})
	for i := 0; i < 5; i++ {
		l.Send(&Packet{Flow: 7, Bytes: 1000})
	}
	l.Send(&Packet{Flow: 8, Bytes: 500})
	eng.Run()
	s := l.Stats()
	if s.Packets != 6 || s.Bytes != 5500 {
		t.Errorf("stats = %+v", s)
	}
	if s.BusyTime != 5500 {
		t.Errorf("BusyTime = %v, want 5500ns at 1GB/s", s.BusyTime)
	}
	if s.MaxQueued < 5 {
		t.Errorf("MaxQueued = %d", s.MaxQueued)
	}
	if l.FlowBytes(7) != 5000 || l.FlowBytes(8) != 500 {
		t.Errorf("per-flow bytes: %d, %d", l.FlowBytes(7), l.FlowBytes(8))
	}
	if l.Queued() != 0 {
		t.Errorf("Queued = %d after drain", l.Queued())
	}
	if l.Name() != "l" || l.Bandwidth() != gbps1 {
		t.Error("accessors")
	}
}

func TestPacketSentStamp(t *testing.T) {
	eng := sim.New()
	var got sim.Time = -1
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) { got = p.Sent })
	eng.Schedule(100, func() {
		l.Send(&Packet{Flow: 1, Bytes: 10})
	})
	eng.Run()
	if got != 100 {
		t.Errorf("Sent = %v, want 100", got)
	}
}

func TestLinkInvalidArgsPanic(t *testing.T) {
	eng := sim.New()
	for name, fn := range map[string]func(){
		"zero bandwidth": func() { NewLink(eng, "l", 0, 0, RoundRobin, func(*Packet) {}) },
		"nil deliver":    func() { NewLink(eng, "l", 1, 0, RoundRobin, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSwitchForwarding(t *testing.T) {
	eng := sim.New()
	var arrived *Packet
	var at sim.Time
	down := NewLink(eng, "down", gbps1, 100, RoundRobin, func(p *Packet) {
		arrived = p
		at = eng.Now()
	})
	sw := NewSwitch(eng, 200)
	sw.AttachNode(2, down)
	up := NewLink(eng, "up", gbps1, 100, RoundRobin, sw.Inject)
	up.Send(&Packet{Flow: 1, SrcNode: 1, DstNode: 2, DstFlow: 9, Bytes: 1024})
	eng.Run()
	if arrived == nil {
		t.Fatal("packet lost")
	}
	// uplink ser 1024 + prop 100 + switch 200 + downlink ser 1024 + prop 100.
	if want := sim.Time(2448); at != want {
		t.Errorf("end-to-end at %v, want %v", at, want)
	}
	if arrived.DstFlow != 9 {
		t.Error("packet fields corrupted")
	}
}

func TestSwitchUnknownDestPanics(t *testing.T) {
	eng := sim.New()
	sw := NewSwitch(eng, 0)
	defer func() {
		if recover() == nil {
			t.Error("unknown destination should panic")
		}
	}()
	sw.Inject(&Packet{DstNode: 42})
	eng.Run()
}

func TestSwitchDuplicateAttachPanics(t *testing.T) {
	eng := sim.New()
	sw := NewSwitch(eng, 0)
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(*Packet) {})
	sw.AttachNode(1, l)
	func() {
		// A nil egress would otherwise read as "use the default route".
		defer func() {
			if recover() == nil {
				t.Error("attaching a nil egress should panic")
			}
		}()
		sw.AttachNode(2, nil)
	}()
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach should panic")
		}
	}()
	sw.AttachNode(1, l)
}

func TestFlowRateLimitPacesThroughput(t *testing.T) {
	// A flow limited to 100 MB/s on a 1 GB/s link delivers ~100 MB over a
	// simulated second, while an unlimited peer is unaffected.
	eng := sim.New()
	bytes := map[uint32]int64{}
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) { bytes[p.Flow] += int64(p.Bytes) })
	l.SetFlowRateLimit(1, 100e6)
	if l.FlowRateLimit(1) != 100e6 || l.FlowRateLimit(9) != 0 {
		t.Fatal("rate limit accessors")
	}
	// Offer far more than the limit on flow 1, and a moderate load on 2.
	for i := 0; i < 500000; i++ {
		l.Send(&Packet{Flow: 1, Bytes: 1024})
	}
	for i := 0; i < 100000; i++ {
		l.Send(&Packet{Flow: 2, Bytes: 1024})
	}
	eng.RunUntil(sim.Second)
	got1 := float64(bytes[1])
	if got1 < 95e6 || got1 > 105e6 {
		t.Errorf("limited flow moved %.0f bytes in 1s, want ~100e6", got1)
	}
	if bytes[2] != 100000*1024 {
		t.Errorf("unlimited flow moved %d bytes, want all %d", bytes[2], 100000*1024)
	}
	eng.Shutdown()
}

func TestFlowRateLimitSoloFlowSelfWakes(t *testing.T) {
	// With only a paced flow queued, the link must re-arm itself rather
	// than stall.
	eng := sim.New()
	var delivered int
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) { delivered++ })
	l.SetFlowRateLimit(7, 1e6) // ~1 packet of 1KB per ms
	for i := 0; i < 10; i++ {
		l.Send(&Packet{Flow: 7, Bytes: 1024})
	}
	eng.RunUntil(5 * sim.Millisecond)
	if delivered < 4 || delivered > 6 {
		t.Errorf("delivered %d in 5ms at ~1/ms pacing", delivered)
	}
	eng.Run() // drain completely
	if delivered != 10 {
		t.Errorf("paced flow stalled: %d/10 delivered", delivered)
	}
}

func TestFlowRateLimitRemoval(t *testing.T) {
	eng := sim.New()
	var delivered int
	l := NewLink(eng, "l", gbps1, 0, RoundRobin, func(p *Packet) { delivered++ })
	l.SetFlowRateLimit(1, 1) // essentially frozen
	for i := 0; i < 100; i++ {
		l.Send(&Packet{Flow: 1, Bytes: 1024})
	}
	eng.RunUntil(sim.Millisecond)
	if delivered > 2 {
		t.Fatalf("frozen flow delivered %d", delivered)
	}
	l.SetFlowRateLimit(1, 0) // lift the limit
	eng.RunUntil(2 * sim.Millisecond)
	if delivered != 100 {
		t.Errorf("after lifting limit delivered %d/100", delivered)
	}
}

func TestConservationUnderContention(t *testing.T) {
	// Property: every packet injected is delivered exactly once, regardless
	// of flow mix or discipline.
	for _, disc := range []Discipline{RoundRobin, FIFO} {
		eng := sim.New()
		r := sim.NewRand(99)
		delivered := map[uint64]int{}
		l := NewLink(eng, "l", gbps1, 10, disc, func(p *Packet) { delivered[p.Meta.(uint64)]++ })
		var id uint64
		for i := 0; i < 500; i++ {
			id++
			msg := id
			at := sim.Time(r.Intn(100000))
			flow := uint32(r.Intn(5))
			eng.Schedule(at, func() {
				l.Send(&Packet{Flow: flow, Bytes: 1 + r.Intn(1024), Meta: msg})
			})
		}
		eng.Run()
		if len(delivered) != 500 {
			t.Fatalf("%v: delivered %d distinct, want 500", disc, len(delivered))
		}
		for msg, n := range delivered {
			if n != 1 {
				t.Fatalf("%v: msg %d delivered %d times", disc, msg, n)
			}
		}
	}
}

func TestSwitchDefaultRoute(t *testing.T) {
	eng := sim.New()
	sw := NewSwitch(eng, 100)
	if sw.Latency() != 100 {
		t.Errorf("Latency = %d", sw.Latency())
	}
	// A statically wired switch still panics on unknown destinations.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for unattached node without a default route")
			}
		}()
		sw.Inject(&Packet{DstNode: 9})
	}()

	var local int
	sw.AttachNode(1, NewLink(eng, "down", gbps1, 0, RoundRobin, func(p *Packet) { local++ }))
	var defPkts []*Packet
	var defAt []sim.Time
	sw.SetDefaultRoute(func(p *Packet) {
		defPkts = append(defPkts, p)
		defAt = append(defAt, eng.Now())
	})
	sw.Inject(&Packet{DstNode: 9, SrcNode: 1, Bytes: 64})
	sw.Inject(&Packet{DstNode: 1, SrcNode: 9, Bytes: 64})
	eng.Run()
	// The attached port still routes locally; only the unknown destination
	// takes the uplink, after exactly the forwarding latency.
	if local != 1 {
		t.Errorf("local deliveries = %d, want 1", local)
	}
	if len(defPkts) != 1 || defPkts[0].DstNode != 9 {
		t.Fatalf("default-route packets = %v", defPkts)
	}
	if defAt[0] != 100 {
		t.Errorf("default route fired at %d, want the switch latency 100", defAt[0])
	}
	eng.Shutdown()
}

func TestLinkPropagationAccessor(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, "l", gbps1, 250, RoundRobin, func(p *Packet) {})
	if l.Propagation() != 250 {
		t.Errorf("Propagation = %d, want 250", l.Propagation())
	}
	eng.Shutdown()
}
