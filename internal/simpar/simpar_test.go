package simpar

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"resex/internal/sim"
)

const testL = 100 * sim.Microsecond

// rig is a bare-engine fleet for coordinator tests: each host records every
// action it executes (own events and deliveries) into its private log, and
// the merged, host-ordered concatenation is the run's observable output.
type rig struct {
	co   *Coordinator
	engs map[int]*sim.Engine
	hs   map[int]*Host
	logs map[int]*[]string
}

func newRig(t testing.TB, hosts int, cfg Config) *rig {
	t.Helper()
	if cfg.Lookahead == 0 {
		cfg.Lookahead = testL
	}
	r := &rig{
		co:   New(cfg),
		engs: make(map[int]*sim.Engine),
		hs:   make(map[int]*Host),
		logs: make(map[int]*[]string),
	}
	for id := 1; id <= hosts; id++ {
		eng := sim.New()
		r.engs[id] = eng
		r.hs[id] = r.co.AddHost(id, eng)
		r.logs[id] = new([]string)
	}
	return r
}

func (r *rig) log(host int, format string, args ...any) {
	*r.logs[host] = append(*r.logs[host], fmt.Sprintf(format, args...))
}

// output is the canonical run transcript: per-host logs in host order.
func (r *rig) output() string {
	var b strings.Builder
	for id := 1; id <= len(r.hs); id++ {
		fmt.Fprintf(&b, "host%d: %s\n", id, strings.Join(*r.logs[id], " | "))
	}
	return b.String()
}

// pingWorkload starts a deterministic cross-host traffic pattern: every
// host runs local ticks and forwards a token around the ring with delay L,
// logging everything with timestamps.
func (r *rig) pingWorkload(rounds int) {
	n := len(r.hs)
	for id := 1; id <= n; id++ {
		eng := r.engs[id]
		// Local periodic work, denser than the window size.
		tk := new(sim.Timer)
		*tk = eng.Every(7*sim.Microsecond, func() {
			r.log(id, "tick@%d", eng.Now())
			if eng.Now() >= sim.Time(rounds)*testL {
				tk.Stop()
			}
		})
	}
	// Tokens: each host launches one, hopping to the next host every L.
	for id := 1; id <= n; id++ {
		var hop func(holder, hops int)
		hop = func(holder, hops int) {
			r.log(holder, "token%d-hop%d@%d", id, hops, r.engs[holder].Now())
			if hops >= rounds {
				return
			}
			next := holder%n + 1
			r.hs[holder].Send(next, r.engs[holder].Now()+testL, func() {
				hop(next, hops+1)
			})
		}
		r.engs[id].Schedule(sim.Time(id)*3*sim.Microsecond, func() { hop(id, 0) })
	}
}

// runPing executes the standard workload under a given sharding config and
// returns the transcript.
func runPing(t testing.TB, hosts, rounds int, cfg Config) string {
	t.Helper()
	r := newRig(t, hosts, cfg)
	r.pingWorkload(rounds)
	r.co.RunUntil(sim.Time(rounds+1) * testL)
	r.co.Shutdown()
	return r.output()
}

// TestShardCountInvariance is the core determinism contract: the transcript
// is byte-identical at one shard on one worker (serial semantics) and at
// any other (shards, workers) combination, including an adversarial
// interleaved shard map.
func TestShardCountInvariance(t *testing.T) {
	const hosts, rounds = 6, 8
	want := runPing(t, hosts, rounds, Config{Shards: 1, Workers: 1})
	cases := []Config{
		{Shards: 2, Workers: 2},
		{Shards: 3, Workers: 2},
		{Shards: 6, Workers: 6},
		{Shards: 6, Workers: 3, ShardOf: func(id int) int { return (id * 5) % 6 }},
		{Shards: 2, Workers: 2, ShardOf: func(id int) int { return id % 2 }},
	}
	for i, cfg := range cases {
		if got := runPing(t, hosts, rounds, cfg); got != want {
			t.Errorf("case %d (shards=%d workers=%d): transcript diverged\nwant:\n%s\ngot:\n%s",
				i, cfg.Shards, cfg.Workers, want, got)
		}
	}
}

// TestSameInstantCrossShardFIFO pins the same-instant merge semantics with
// more than two events at one timestamp spanning shard boundaries: the
// destination's own engine events at t run first, then deliveries at t in
// (source, send-order) — and the order must match the serial (1-shard) run
// event-for-event.
func TestSameInstantCrossShardFIFO(t *testing.T) {
	const at = testL // one full window out: every host may target it
	run := func(cfg Config) string {
		r := newRig(t, 4, cfg)
		// Host 1 has its own engine work at the contested instant.
		r.engs[1].Schedule(at, func() { r.log(1, "own@%d", r.engs[1].Now()) })
		// Hosts 2..4 each fire three same-instant sends to host 1 from an
		// event at t=0; send order within a host must survive the merge.
		for id := 2; id <= 4; id++ {
			r.engs[id].Schedule(0, func() {
				for k := 1; k <= 3; k++ {
					r.hs[id].Send(1, at, func() {
						r.log(1, "msg-src%d-#%d@%d", id, k, r.engs[1].Now())
					})
				}
			})
		}
		r.co.RunUntil(2 * testL)
		r.co.Shutdown()
		return r.output()
	}

	serial := run(Config{Shards: 1, Workers: 1})
	want := "host1: own@100000 | " +
		"msg-src2-#1@100000 | msg-src2-#2@100000 | msg-src2-#3@100000 | " +
		"msg-src3-#1@100000 | msg-src3-#2@100000 | msg-src3-#3@100000 | " +
		"msg-src4-#1@100000 | msg-src4-#2@100000 | msg-src4-#3@100000\nhost2: \nhost3: \nhost4: \n"
	if serial != want {
		t.Fatalf("serial same-instant order wrong:\ngot:\n%s\nwant:\n%s", serial, want)
	}
	for _, cfg := range []Config{
		{Shards: 4, Workers: 4},
		{Shards: 2, Workers: 2, ShardOf: func(id int) int { return id % 2 }},
	} {
		if got := run(cfg); got != serial {
			t.Errorf("shards=%d: same-instant order diverged from serial FIFO\ngot:\n%s", cfg.Shards, got)
		}
	}
}

// TestHorizonEdge covers the lookahead boundary: a message timed exactly at
// the synchronization horizon (the window end) is legal, is not delivered
// inside the sending window, and arrives at exactly its timestamp in the
// next window — and an engine event scheduled exactly at a window boundary
// executes in the window that opens there, in both cases identically at
// any shard count.
func TestHorizonEdge(t *testing.T) {
	run := func(cfg Config) string {
		r := newRig(t, 2, cfg)
		r.engs[1].Schedule(0, func() {
			// The first window is [0, testL): at == testL is the horizon.
			r.hs[1].Send(2, testL, func() { r.log(2, "horizon-msg@%d", r.engs[2].Now()) })
		})
		// Host 2's own event exactly at the boundary instant.
		r.engs[2].Schedule(testL, func() { r.log(2, "edge-event@%d", r.engs[2].Now()) })
		r.co.RunUntil(2 * testL)
		r.co.Shutdown()
		return r.output()
	}
	serial := run(Config{Shards: 1, Workers: 1})
	want := fmt.Sprintf("host1: \nhost2: edge-event@%d | horizon-msg@%d\n", int64(testL), int64(testL))
	if serial != want {
		t.Fatalf("horizon edge semantics:\ngot:\n%swant:\n%s", serial, want)
	}
	if par := run(Config{Shards: 2, Workers: 2}); par != serial {
		t.Errorf("horizon edge diverged across shards:\ngot:\n%swant:\n%s", par, serial)
	}
}

// TestSendBelowLookaheadPanics pins the causality guard: a message timed
// inside the sending window (delay below the declared lookahead) must
// panic rather than silently arrive in a peer's simulated past.
func TestSendBelowLookaheadPanics(t *testing.T) {
	r := newRig(t, 2, Config{Shards: 2, Workers: 1})
	r.engs[1].Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send below lookahead did not panic")
			}
		}()
		r.hs[1].Send(2, r.engs[1].Now()+1, func() {})
	})
	r.co.RunUntil(testL)
	r.co.Shutdown()
}

// TestMigrationAcrossShardsMidWindow retargets a periodic workload from a
// host in one shard to a host in another, mid-run, through both legal
// channels: a cross-shard handoff message (landing mid-window on the
// destination) and a global boundary callback. The work ledger must be
// identical at every shard layout.
func TestMigrationAcrossShardsMidWindow(t *testing.T) {
	run := func(cfg Config) string {
		r := newRig(t, 4, cfg)
		// The "VM": a periodic that logs work on its current host. Stopped
		// by flipping the host-local alive flag (engine-local state).
		alive := map[int]*bool{}
		var start func(host int, phase sim.Time, done int)
		start = func(host int, phase sim.Time, done int) {
			f := new(bool)
			*f = true
			alive[host] = f
			n := done
			tk := new(sim.Timer)
			*tk = r.engs[host].Every(11*sim.Microsecond, func() {
				if !*f {
					tk.Stop()
					return
				}
				n++
				r.log(host, "work%d@%d", n, r.engs[host].Now())
			})
			_ = phase
		}
		start(1, 0, 0)

		// Handoff 1, mid-window message: host 1 decides at t=130µs (inside
		// window [100µs, 200µs)) to migrate to host 3; the handoff message
		// lands at 230µs — mid-window on host 3 — carrying the work count.
		r.engs[1].Schedule(130*sim.Microsecond, func() {
			*alive[1] = false
			r.log(1, "handoff-out@%d", r.engs[1].Now())
			r.hs[1].Send(3, r.engs[1].Now()+testL, func() {
				r.log(3, "handoff-in@%d", r.engs[3].Now())
				start(3, 0, 0)
			})
		})

		// Handoff 2, boundary-driven: at the 400µs barrier the coordinator
		// retargets the VM from host 3 to host 2 directly — every host is
		// quiescent at a barrier, so cross-host surgery is legal there.
		r.co.At(400*sim.Microsecond, func() {
			*alive[3] = false
			r.log(3, "evict@%d", r.engs[3].Now())
			r.engs[2].Schedule(400*sim.Microsecond, func() {
				r.log(2, "adopt@%d", r.engs[2].Now())
				start(2, 0, 0)
			})
		})

		r.co.RunUntil(600 * sim.Microsecond)
		r.co.Shutdown()
		return r.output()
	}

	want := run(Config{Shards: 1, Workers: 1})
	for _, cfg := range []Config{
		{Shards: 4, Workers: 4},
		{Shards: 2, Workers: 2, ShardOf: func(id int) int { return id % 2 }},
	} {
		if got := run(cfg); got != want {
			t.Errorf("migration transcript diverged (shards=%d):\ngot:\n%swant:\n%s", cfg.Shards, got, want)
		}
	}
}

// TestBreakpointInWindowSeqNeutral arms an engine-level breakpoint (the
// snapshot capture mechanism) in the middle of a shard window and checks
// (a) the run's transcript is unchanged by arming, (b) the captured engine
// state is identical at 1 and 4 shards, and (c) the capture point sits
// inside a window, not on a barrier.
func TestBreakpointInWindowSeqNeutral(t *testing.T) {
	const capT = 3*testL + 37*sim.Microsecond // mid-window by construction
	capture := func(cfg Config, arm bool) (string, sim.EngineState) {
		r := newRig(t, 4, cfg)
		r.pingWorkload(6)
		var st sim.EngineState
		if arm {
			if _, ok := r.engs[2].NextBreak(); ok {
				t.Fatal("fresh engine reports an armed breakpoint")
			}
			r.engs[2].Breakpoint(capT, func() { st = r.engs[2].Checkpoint() })
			if at, ok := r.engs[2].NextBreak(); !ok || at != capT {
				t.Fatalf("NextBreak = %v,%v; want %v,true", at, ok, capT)
			}
		}
		r.co.RunUntil(7 * testL)
		r.co.Shutdown()
		return r.output(), st
	}

	plain, _ := capture(Config{Shards: 1, Workers: 1}, false)
	armed1, st1 := capture(Config{Shards: 1, Workers: 1}, true)
	armed4, st4 := capture(Config{Shards: 4, Workers: 4}, true)
	if armed1 != plain {
		t.Error("arming a breakpoint changed the serial transcript")
	}
	if armed4 != plain {
		t.Error("arming a breakpoint changed the 4-shard transcript")
	}
	if st1.Now != capT || st4.Now != capT {
		t.Fatalf("capture fired at %d / %d; want %d", st1.Now, st4.Now, capT)
	}
	if !reflect.DeepEqual(st1, st4) {
		t.Errorf("captured engine state differs across shard counts:\n1: %+v\n4: %+v", st1, st4)
	}
}

// TestCheckpointPurityAndInvariance: Host.Checkpoint is a pure observer
// (calling it mid-run changes nothing) and its export is identical at any
// shard count, including the in-flight message keys.
func TestCheckpointPurityAndInvariance(t *testing.T) {
	run := func(cfg Config, observe bool) (string, []HostState) {
		r := newRig(t, 4, cfg)
		r.pingWorkload(6)
		var sts []HostState
		r.co.At(3*testL, func() {
			for id := 1; id <= 4; id++ {
				st := r.co.Host(id).Checkpoint()
				if observe {
					sts = append(sts, st)
				}
			}
		})
		r.co.RunUntil(7 * testL)
		r.co.Shutdown()
		return r.output(), sts
	}
	plain, _ := run(Config{Shards: 1, Workers: 1}, false)
	obs1, sts1 := run(Config{Shards: 1, Workers: 1}, true)
	obs4, sts4 := run(Config{Shards: 4, Workers: 2, ShardOf: func(id int) int { return (id + 1) % 4 }}, true)
	if obs1 != plain {
		t.Error("Checkpoint observation perturbed the run")
	}
	if obs4 != plain {
		t.Error("sharded Checkpoint observation perturbed the run")
	}
	if !reflect.DeepEqual(sts1, sts4) {
		t.Errorf("HostState differs across shard maps:\n1: %+v\n4: %+v", sts1, sts4)
	}
	if len(sts1) != 4 || sts1[0].LookaheadNs != int64(testL) {
		t.Fatalf("unexpected checkpoint shape: %+v", sts1)
	}
	var seqs, inflight uint64
	for _, st := range sts1 {
		seqs += st.SendSeq
		inflight += uint64(len(st.Inbox)) + uint64(len(st.Outbox))
	}
	if seqs == 0 {
		t.Error("no sends recorded in checkpoints — workload did not exercise the backbone")
	}
	if inflight == 0 {
		t.Error("no in-flight messages at the boundary — tokens should be mid-hop")
	}
}

// TestBoundarySemantics: boundaries fire in (at, arm order) with every host
// quiescent at the boundary instant, may inspect and mutate any host, and
// consume no engine seq numbers (transcript equality covers that via the
// other tests; here we pin ordering and host clock positions).
func TestBoundarySemantics(t *testing.T) {
	r := newRig(t, 2, Config{Shards: 2, Workers: 2})
	var order []string
	bound := func(tag string, at sim.Time) {
		r.co.At(at, func() {
			order = append(order, fmt.Sprintf("%s@co=%d,h1=%d,h2=%d",
				tag, r.co.Now(), r.engs[1].Now(), r.engs[2].Now()))
		})
	}
	bound("b", 2*testL)
	bound("a", testL)
	bound("c", 2*testL) // same instant as b, armed later
	r.co.Every(testL, func() bool { order = append(order, fmt.Sprintf("e@%d", r.co.Now())); return r.co.Now() < 3*testL })
	r.co.RunUntil(3 * testL)
	r.co.Shutdown()
	want := []string{
		fmt.Sprintf("a@co=%d,h1=%d,h2=%d", testL, testL-1, testL-1),
		fmt.Sprintf("e@%d", testL),
		fmt.Sprintf("b@co=%d,h1=%d,h2=%d", 2*testL, 2*testL-1, 2*testL-1),
		fmt.Sprintf("c@co=%d,h1=%d,h2=%d", 2*testL, 2*testL-1, 2*testL-1),
		fmt.Sprintf("e@%d", 2*testL),
		fmt.Sprintf("e@%d", 3*testL),
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("boundary order:\ngot  %v\nwant %v", order, want)
	}
	st := r.co.Stats()
	if st.Boundaries != uint64(len(want)) {
		t.Errorf("Boundaries = %d, want %d", st.Boundaries, len(want))
	}
}

// TestWorkerPanicPropagates: a panic inside a host event surfaces on the
// coordinator's goroutine with the host attributed.
func TestWorkerPanicPropagates(t *testing.T) {
	r := newRig(t, 4, Config{Shards: 4, Workers: 4})
	r.engs[3].Schedule(5, func() { panic("boom") })
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "host 3") || !strings.Contains(msg, "boom") {
			t.Errorf("panic %q does not attribute host 3 / boom", msg)
		}
		r.co.Shutdown()
	}()
	r.co.RunUntil(testL)
	t.Fatal("expected panic")
}

// TestStatsDeterministic: the coordinator's counters are pure functions of
// the virtual-time structure, not of the shard layout.
func TestStatsDeterministic(t *testing.T) {
	collect := func(cfg Config) Stats {
		r := newRig(t, 6, cfg)
		r.pingWorkload(5)
		r.co.RunUntil(6 * testL)
		r.co.Shutdown()
		return r.co.Stats()
	}
	a := collect(Config{Shards: 1, Workers: 1})
	b := collect(Config{Shards: 6, Workers: 6})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ across shard counts: %+v vs %+v", a, b)
	}
	if a.Windows == 0 || a.Messages == 0 {
		t.Errorf("degenerate stats: %+v", a)
	}
}
