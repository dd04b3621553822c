package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// TestPeriodicEngineStatePinned pins what a program of recurring timers
// leaves in EngineState: Checkpoint's JSON and Pending at every breakpoint,
// hashed. Four Every timers run beside one-shots, a canceled one-shot and a
// delay queue. One timer stops inside its own tick, where Checkpoint is
// also taken (Stopped shows only there), and one is stopped from outside,
// so swap-removal reorders Wheel. A burst fills the free list to
// maxFreeEvents, after which the ticks must leave FreeEvents where the
// one-shots they schedule put it. The digest was recorded when periodic
// timers lived outside the event heap, so it holds their Wheel order, keys
// and pool occupancy to what that engine exported.
func TestPeriodicEngineStatePinned(t *testing.T) {
	const want = "343f7259a27f9279d3aee64a5692c699d22930e7c016f460dd512b918ae895a0"
	eng := New()
	h := sha256.New()
	record := func(pending bool) {
		b, err := json.Marshal(eng.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		if pending {
			fmt.Fprintf(h, " pending=%d", eng.Pending())
		}
		h.Write([]byte{'\n'})
	}

	dq := eng.Delay(3)
	echoes := 0
	var echo func()
	echo = func() {
		if echoes++; echoes%4 != 0 {
			dq.After(echo)
		}
	}
	var self, outside Timer
	selfTicks := 0
	self = eng.Every(10, func() {
		dq.After(echo)
		if selfTicks++; selfTicks == 4 {
			self.Stop()
			record(false)
		}
	})
	outside = eng.Every(7, func() { eng.After(2, func() {}) })
	slow := eng.Every(13, func() {})
	fast := eng.Every(5, func() { eng.Schedule(eng.Now(), func() {}) })
	eng.Schedule(10, func() {}) // ties with the first 10 tick, after it
	canceled := eng.Schedule(20, func() { t.Error("canceled one-shot fired") })
	eng.Schedule(15, func() { canceled.Stop() })
	eng.Schedule(33, func() { outside.Stop() })
	eng.Schedule(50, func() {
		for i := 0; i < maxFreeEvents+100; i++ {
			eng.After(Time(1+i%5), func() {})
		}
	})
	for _, at := range []Time{1, 10, 20, 34, 40, 50, 51, 56, 80} {
		eng.Breakpoint(at, func() { record(true) })
	}
	eng.RunUntil(120)
	record(true)
	slow.Stop()
	fast.Stop()
	eng.Run()
	record(true)

	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("EngineState digest %s, want %s", got, want)
	}
	if eng.Pending() != 0 {
		t.Errorf("Pending = %d after Run, want 0", eng.Pending())
	}
}
