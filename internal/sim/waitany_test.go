package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// closureWaitAny is WaitAny as it was before waits kept their state on the
// Proc: a fresh pair of closures per wait. It is the reference the pooled,
// generation-tagged WaitAny must match event for event.
func closureWaitAny(p *Proc, s *Signal, d Time) (signaled bool) {
	done := false
	var timer Timer
	s.Notify(func() {
		if done {
			return
		}
		done = true
		signaled = true
		timer.Stop()
		p.dispatch()
	})
	timer = p.eng.After(d, func() {
		if done {
			return
		}
		done = true
		p.dispatch()
	})
	p.park()
	return signaled
}

// waitAnyScenario drives wait through signaled waits, timeouts that leave
// stale registrations behind, a Notify callback and a plain Wait queued
// among the registrations, and a process killed
// mid-wait whose registration and timer both fire after its death. It
// returns every executed event's (at, seq) key and a log of what each wait
// returned.
func waitAnyScenario(wait func(p *Proc, s *Signal, d Time) bool) (keys []EventKey, log []string) {
	e := New()
	e.SetStepHook(func(at Time, seq uint64) { keys = append(keys, EventKey{At: at, Seq: seq}) })
	s := NewSignal(e)
	e.Go("w", func(p *Proc) {
		for i := 0; i < 12; i++ {
			ok := wait(p, s, Time(3+5*(i%4)))
			log = append(log, fmt.Sprintf("w%d signaled=%v at %v", i, ok, p.Now()))
		}
	})
	killed := e.Go("k", func(p *Proc) {
		p.Sleep(6)
		wait(p, s, 40)
		log = append(log, "k returned")
	})
	e.Go("plain", func(p *Proc) {
		p.Sleep(2)
		s.Wait(p)
		log = append(log, fmt.Sprintf("plain woke at %v", p.Now()))
	})
	e.Schedule(1, func() {
		s.Notify(func() { log = append(log, fmt.Sprintf("notify at %v", e.Now())) })
	})
	e.Schedule(4, s.Broadcast)
	e.Schedule(8, func() { killed.Kill() })
	for _, at := range []Time{9, 10, 12, 17, 26, 27, 31, 44, 60} {
		e.Schedule(at, s.Broadcast)
	}
	e.Run()
	return keys, log
}

func TestWaitAnyAllocatesNothing(t *testing.T) {
	keys, log := waitAnyScenario((*Proc).WaitAny)
	refKeys, refLog := waitAnyScenario(closureWaitAny)
	if !slices.Equal(keys, refKeys) {
		t.Errorf("event stream differs from the closure reference:\n got %v\nwant %v", keys, refKeys)
	}
	if !slices.Equal(log, refLog) {
		t.Errorf("waits returned differently from the closure reference:\n got %q\nwant %q", log, refLog)
	}
	var signaled, timedOut int
	for _, l := range log {
		signaled += strings.Count(l, "signaled=true")
		timedOut += strings.Count(l, "signaled=false")
		if l == "k returned" {
			t.Error("killed waiter returned from its wait")
		}
	}
	if signaled == 0 || timedOut == 0 {
		t.Errorf("scenario ran %d signaled and %d timed-out waits, want both: %q", signaled, timedOut, log)
	}

	// Steady state: one round is a signaled wait, a timed-out wait whose
	// registration goes stale, and a broadcast that fires that stale
	// registration's no-op event beside a live one.
	e := New()
	s := NewSignal(e)
	broadcast := s.Broadcast
	e.Go("w", func(p *Proc) {
		for {
			p.WaitAny(s, 20)
			p.WaitAny(s, 5)
		}
	})
	e.RunUntil(0)
	round := func() {
		now := e.Now()
		e.Schedule(now+10, broadcast)
		e.Schedule(now+30, broadcast)
		e.RunUntil(now + 40)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a warm round of waits allocates %.1f times, want 0", allocs)
	}
	e.Shutdown()
}
