package resex

import (
	"container/heap"
	"runtime"
	"testing"
	"time"

	"resex/internal/experiments"
	"resex/internal/sim"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// Legacy event-queue replica: the container/heap implementation the zero-alloc
// core replaced. Kept here (test-only) so BenchmarkEngineCore can measure the
// before/after ratio on the machine running the benchmark — absolute ns/op
// vary across CI runners, the speedup of one engine over the other does not.
// ---------------------------------------------------------------------------

type legacyEvent struct {
	at       int64
	seq      uint64
	fn       func()
	index    int
	canceled bool
}

type legacyQueue []*legacyEvent

func (q legacyQueue) Len() int { return len(q) }
func (q legacyQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q legacyQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *legacyQueue) Push(x any) {
	ev := x.(*legacyEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *legacyQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type legacyTimer struct {
	eng *legacyEngine
	ev  *legacyEvent
}

type legacyEngine struct {
	now    int64
	events legacyQueue
	seq    uint64
}

// schedule mirrors the old Engine.Schedule: one heap event allocation plus
// one boxed *Timer handle per call.
func (e *legacyEngine) schedule(at int64, fn func()) *legacyTimer {
	e.seq++
	ev := &legacyEvent{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return &legacyTimer{eng: e, ev: ev}
}

func (e *legacyEngine) run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*legacyEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
	}
}

// ---------------------------------------------------------------------------
// BenchmarkEngineCore: before/after event-core comparison + parallel-sweep
// speedup, recorded in BENCH_core.json and checked against the limits below.
// ---------------------------------------------------------------------------

// coreEvents is the fixed self-tick chain length both engines execute per
// measurement. Large enough to amortize setup, small enough for -benchtime=1x
// CI smoke runs.
const coreEvents = 2_000_000

// minCoreSpeedup is the event-core floor: the 2x throughput target over the
// container/heap queue with a 10% regression budget.
const minCoreSpeedup = 1.8

// maxAllocsPerEvent tolerates runtime-internal allocations (GC bookkeeping,
// timer goroutines) that can land between the MemStats samples; the event
// path itself contributes ~1 alloc/event when it regresses, far above this.
const maxAllocsPerEvent = 0.001

// measureLegacy runs the chain on the container/heap replica, returning wall
// time and the allocation count.
func measureLegacy() (elapsed time.Duration, mallocs uint64) {
	eng := &legacyEngine{}
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < coreEvents {
			eng.schedule(eng.now+100, tick)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	eng.schedule(eng.now+100, tick)
	eng.run()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs
}

// measureCurrent runs the identical chain on the production engine.
func measureCurrent() (elapsed time.Duration, mallocs uint64) {
	eng := sim.New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < coreEvents {
			eng.After(100, tick)
		}
	}
	// Warm the event pool so the measured window sees the steady state the
	// experiments run in (the pool holds well under 1 MB at cap).
	eng.After(100, func() {})
	eng.Run()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	eng.After(100, tick)
	eng.Run()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs
}

// measureDelay runs the chain through a delay queue, the path the per-MTU
// fabric and HCA stages take, returning the allocation count.
func measureDelay() (mallocs uint64) {
	eng := sim.New()
	q := eng.Delay(100)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < coreEvents {
			q.After(tick)
		}
	}
	q.After(func() {}) // warm the pool and the queue's ring
	eng.Run()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	q.After(tick)
	eng.Run()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// measurePeriodic runs the chain as the ticks of one Every timer, the path
// a workload tenant's SLO window takes, returning the allocation count of
// the ticks alone.
func measurePeriodic() (mallocs uint64) {
	eng := sim.New()
	n := 0
	var tm sim.Timer
	tm = eng.Every(100, func() {
		if n++; n == coreEvents {
			tm.Stop()
		}
	})
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng.Run()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// minCreditedShare is the train fast-forward floor: a few points under the
// share of fig1's events that segments credit (creditedShare), so a change
// that quietly turns the fast path off, or narrows it, fails the bench
// smoke job. The share is a deterministic count, the same on any machine.
const minCreditedShare = 0.94

// creditedShare runs both sides of fig1 (without and with the 2 MB
// interferer) at seed 3 for 200 ms, the reference run of the ROADMAP's
// train fast-forward item, and returns the events their engines counted
// and how many of those segments credited without a dispatch.
func creditedShare() (steps, credited uint64, err error) {
	o := experiments.Options{Duration: 200 * sim.Millisecond, Seed: 3}.WithDefaults()
	for _, intf := range []int{0, workload.BulkBuffer} {
		s, err := experiments.Build(experiments.ScenarioConfig{Timeline: true, Seed: o.Seed, IntfBuffer: intf})
		if err != nil {
			return 0, 0, err
		}
		s.RunMeasured(o)
		steps += s.TB.Eng.Steps()
		credited += s.TB.Eng.Credited()
		s.TB.Eng.Shutdown()
	}
	return steps, credited, nil
}

// BenchmarkEngineCore measures the zero-alloc event core against the legacy
// container/heap queue it replaced, plus the parallel sweep runner against
// the serial loop, and the share of fig1's events train segments credit,
// and records everything in BENCH_core.json. The CI bench smoke job runs
// this at -benchtime=1x; a speedup under minCoreSpeedup, an allocating
// event path or a credited share under minCreditedShare fails it.
func BenchmarkEngineCore(b *testing.B) {
	var recs []benchRecord
	for i := 0; i < b.N; i++ {
		lElapsed, lMallocs := measureLegacy()
		cElapsed, cMallocs := measureCurrent()
		lNs := float64(lElapsed.Nanoseconds()) / coreEvents
		cNs := float64(cElapsed.Nanoseconds()) / coreEvents
		cAllocs := float64(cMallocs) / coreEvents
		dAllocs := float64(measureDelay()) / coreEvents
		pAllocs := float64(measurePeriodic()) / coreEvents

		// Sweep runner: the same figure serially and on 4 workers. Identical
		// output is asserted by the experiments tests; here we record the
		// wall-clock ratio.
		sweepOpts := experiments.Options{
			Duration: 100 * sim.Millisecond,
			Warmup:   25 * sim.Millisecond,
		}
		serialStart := time.Now()
		if _, err := experiments.AblCapacity(sweepOpts); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(serialStart)
		sweepOpts.Parallel = 4
		parStart := time.Now()
		if _, err := experiments.AblCapacity(sweepOpts); err != nil {
			b.Fatal(err)
		}
		par := time.Since(parStart)
		steps, credited, err := creditedShare()
		if err != nil {
			b.Fatal(err)
		}
		sweepNote := "abl-capacity serially vs on 4 workers; the ratio depends on the cores available, so it is not a contract"
		if runtime.NumCPU() == 1 {
			sweepNote = "single-core machine: 4 workers share 1 CPU, ratio reflects goroutine overhead, not sweep scaling"
		}

		recs = []benchRecord{{
			Name: "core.speedup", Unit: "ns/event",
			Baseline: lNs, Current: cNs, Value: lNs / cNs,
			Floor: limit(minCoreSpeedup),
			Note:  "indexed 4-ary heap + pool vs container/heap on a 2M-event self-tick chain; 2x target minus a 10% regression budget",
		}, {
			Name: "core.allocs_per_event", Unit: "allocs/event",
			Baseline: float64(lMallocs) / coreEvents, Current: cAllocs, Value: cAllocs,
			Ceiling: limit(maxAllocsPerEvent),
			Note:    "the steady-state event path must not allocate; the ceiling absorbs runtime background allocations only",
		}, {
			Name: "core.delay_allocs_per_event", Unit: "allocs/event",
			Baseline: cAllocs, Current: dAllocs, Value: dAllocs,
			Ceiling: limit(maxAllocsPerEvent),
			Note:    "the same chain through a delay queue (the per-MTU fabric and HCA path) against the heap path; the ceiling absorbs runtime background allocations only",
		}, {
			Name: "core.periodic_allocs_per_event", Unit: "allocs/event",
			Baseline: cAllocs, Current: pAllocs, Value: pAllocs,
			Ceiling: limit(maxAllocsPerEvent),
			Note:    "the same chain as the ticks of one Every timer (a workload tenant's SLO window) against the heap path; the ceiling absorbs runtime background allocations only",
		}, {
			Name: "core.sweep_speedup", Unit: "ms",
			Baseline: float64(serial.Nanoseconds()) / 1e6, Current: float64(par.Nanoseconds()) / 1e6,
			Value: serial.Seconds() / par.Seconds(),
			Note:  sweepNote,
		}, {
			Name: "fabric.ff_credited_share", Unit: "events",
			Baseline: float64(steps), Current: float64(credited), Value: float64(credited) / float64(steps),
			Floor: limit(minCreditedShare),
			Note:  "events segments credit without a dispatch, of all fig1 counts at seed 3 and 200 ms; a deterministic count whose floor catches a fast path turned off",
		}}
	}
	writeBenchRecords(b, "BENCH_core.json", recs)
}
