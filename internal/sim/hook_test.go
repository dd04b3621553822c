package sim

import "testing"

// TestStepHookObservesEveryEvent checks that the hook fires once per
// executed event — one-shots and periodic ticks alike — with keys in
// strictly increasing (at, seq) order, and that the count matches Steps().
func TestStepHookObservesEveryEvent(t *testing.T) {
	e := New()
	type key struct {
		at  Time
		seq uint64
	}
	var seen []key
	e.SetStepHook(func(at Time, seq uint64) {
		seen = append(seen, key{at, seq})
	})

	var fired int
	tick := e.Every(3, func() { fired++ })
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() { fired++ })
	}
	e.Schedule(12, func() { tick.Stop() })
	e.Run()

	if uint64(len(seen)) != e.Steps() {
		t.Fatalf("hook saw %d events, Steps() = %d", len(seen), e.Steps())
	}
	for i := 1; i < len(seen); i++ {
		a, b := seen[i-1], seen[i]
		if b.at < a.at || (b.at == a.at && b.seq <= a.seq) {
			t.Fatalf("hook keys not strictly increasing: %v then %v", a, b)
		}
	}
	if fired == 0 {
		t.Fatal("no callbacks ran")
	}
}

// TestStepHookDoubleInstallPanics checks the shadowing guard: installing a
// hook over an existing one panics, clearing with nil re-opens the slot.
func TestStepHookDoubleInstallPanics(t *testing.T) {
	e := New()
	e.SetStepHook(func(Time, uint64) {})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second SetStepHook did not panic")
			}
		}()
		e.SetStepHook(func(Time, uint64) {})
	}()
	e.SetStepHook(nil)
	e.SetStepHook(func(Time, uint64) {}) // must not panic after clear
}

// TestStepHookDoesNotPerturbOrdering runs the same event mix with and
// without a hook installed and requires identical execution traces.
func TestStepHookDoesNotPerturbOrdering(t *testing.T) {
	run := func(hook bool) []int {
		e := New()
		if hook {
			e.SetStepHook(func(Time, uint64) {})
		}
		var order []int
		tick := e.Every(2, func() { order = append(order, -1) })
		for i := 0; i < 8; i++ {
			e.Schedule(Time(i), func() { order = append(order, i) })
		}
		e.Schedule(9, func() { tick.Stop() })
		e.Run()
		return order
	}
	plain, hooked := run(false), run(true)
	if len(plain) != len(hooked) {
		t.Fatalf("trace lengths differ: %d vs %d", len(plain), len(hooked))
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, plain[i], hooked[i])
		}
	}
}
