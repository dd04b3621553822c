package sim

import (
	"testing"
	"testing/quick"
)

func TestProcSleep(t *testing.T) {
	e := New()
	var wakes []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			wakes = append(wakes, p.Now())
		}
	})
	e.Run()
	want := []Time{10, 20, 30}
	if len(wakes) != 3 {
		t.Fatalf("wakes = %v, want %v", wakes, want)
	}
	for i := range want {
		if wakes[i] != want[i] {
			t.Errorf("wake %d at %v, want %v", i, wakes[i], want[i])
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcZeroSleepYields(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a-before")
		p.Sleep(0)
		order = append(order, "a-after")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	e.Run()
	// b starts after a parks, and a's zero-sleep resume is scheduled after
	// b's start event, so b runs in between.
	if order[1] != "b" {
		t.Errorf("zero sleep did not yield: %v", order)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New()
	s := NewSignal(e)
	var woke []string
	for _, name := range []string{"p1", "p2", "p3"} {
		e.Go(name, func(p *Proc) {
			s.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Schedule(50, s.Broadcast)
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("broadcast woke %d, want 3", len(woke))
	}
	// FIFO wake order.
	for i, name := range []string{"p1", "p2", "p3"} {
		if woke[i] != name {
			t.Errorf("wake order %v", woke)
			break
		}
	}
}

func TestSignalNotify(t *testing.T) {
	e := New()
	s := NewSignal(e)
	var at Time = -1
	s.Notify(func() { at = e.Now() })
	e.Schedule(25, s.Broadcast)
	e.Run()
	if at != 25 {
		t.Errorf("Notify callback ran at %v, want 25", at)
	}
}

func TestWaitAnySignalFirst(t *testing.T) {
	e := New()
	s := NewSignal(e)
	var signaled bool
	var at Time
	e.Go("w", func(p *Proc) {
		signaled = p.WaitAny(s, 100)
		at = p.Now()
	})
	e.Schedule(30, s.Broadcast)
	e.Run()
	if !signaled || at != 30 {
		t.Errorf("WaitAny: signaled=%v at=%v, want true at 30", signaled, at)
	}
}

func TestWaitAnyTimeoutFirst(t *testing.T) {
	e := New()
	s := NewSignal(e)
	var signaled bool
	var at Time
	e.Go("w", func(p *Proc) {
		signaled = p.WaitAny(s, 100)
		at = p.Now()
	})
	e.Schedule(500, s.Broadcast) // too late
	e.Run()
	if signaled || at != 100 {
		t.Errorf("WaitAny: signaled=%v at=%v, want false at 100", signaled, at)
	}
}

func TestWaitAnyStaleNotifyIsInert(t *testing.T) {
	// After a timeout, the leftover Notify registration must not corrupt a
	// later wait or double-dispatch the process.
	e := New()
	s := NewSignal(e)
	var rounds []Time
	e.Go("w", func(p *Proc) {
		p.WaitAny(s, 50) // times out, stale notify remains
		rounds = append(rounds, p.Now())
		p.WaitAny(s, 1000) // signal below must wake exactly once
		rounds = append(rounds, p.Now())
		p.Sleep(200) // survives any spurious dispatch
		rounds = append(rounds, p.Now())
	})
	e.Schedule(80, s.Broadcast)
	e.Run()
	if len(rounds) != 3 || rounds[0] != 50 || rounds[1] != 80 || rounds[2] != 280 {
		t.Errorf("rounds = %v, want [50 80 280]", rounds)
	}
}

func TestProcKillParked(t *testing.T) {
	e := New()
	reached := false
	p := e.Go("victim", func(p *Proc) {
		p.Sleep(1000)
		reached = true
	})
	e.Schedule(10, func() { p.Kill() })
	e.Run()
	if reached {
		t.Error("killed process continued past Sleep")
	}
	if !p.Ended() {
		t.Error("killed process not marked ended")
	}
}

func TestProcKillBeforeStart(t *testing.T) {
	e := New()
	ran := false
	p := e.Go("victim", func(p *Proc) { ran = true })
	p.Kill()
	e.Run()
	if ran {
		t.Error("killed-before-start process ran")
	}
	if !p.Ended() {
		t.Error("killed-before-start process not marked ended")
	}
}

func TestProcKillIdempotent(t *testing.T) {
	e := New()
	p := e.Go("victim", func(p *Proc) { p.Sleep(1000) })
	e.Schedule(10, func() {
		p.Kill()
		p.Kill() // second kill is a no-op
	})
	e.Run()
	if !p.Ended() {
		t.Error("not ended after double kill")
	}
}

func TestProcKillRunsDefers(t *testing.T) {
	e := New()
	cleaned := false
	p := e.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(1000)
	})
	e.Schedule(10, func() { p.Kill() })
	e.Run()
	if !cleaned {
		t.Error("kill did not run deferred cleanup")
	}
	_ = p
}

func TestShutdownKillsAll(t *testing.T) {
	e := New()
	procs := make([]*Proc, 5)
	for i := range procs {
		procs[i] = e.Go("p", func(p *Proc) { p.Sleep(MaxTime / 2) })
	}
	e.RunUntil(100)
	e.Shutdown()
	for i, p := range procs {
		if !p.Ended() {
			t.Errorf("proc %d alive after Shutdown", i)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New()
	e.Go("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate to Run")
		}
	}()
	e.Run()
}

func TestProcNameAndEngine(t *testing.T) {
	e := New()
	e.Go("named", func(p *Proc) {
		if p.Name() != "named" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine mismatch")
		}
	})
	e.Run()
}

func TestSignalRebroadcastLoop(t *testing.T) {
	// Producer/consumer through a condition, the idiom used by CQ polling.
	e := New()
	var queue []int
	s := NewSignal(e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for len(got) < 5 {
			for len(queue) == 0 {
				s.Wait(p)
			}
			got = append(got, queue[0])
			queue = queue[1:]
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			queue = append(queue, i)
			s.Broadcast()
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("consumer got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got %v, want 0..4 in order", got)
			break
		}
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(1)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / float64(n)
	if mean < 90 || mean > 110 {
		t.Errorf("Exp(100) sample mean = %v, want ~100", mean)
	}
	sum = 0
	for i := 0; i < n; i++ {
		sum += r.Normal(50, 10)
	}
	mean = sum / float64(n)
	if mean < 48 || mean > 52 {
		t.Errorf("Normal(50,10) sample mean = %v, want ~50", mean)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Uniform(5, 6); v < 5 || v >= 6 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestExpDurationPositive(t *testing.T) {
	r := NewRand(3)
	f := func(mean int64) bool {
		if mean < 0 {
			mean = -mean
		}
		return r.ExpDuration(Time(mean%1000)) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
