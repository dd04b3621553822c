package sim

import "testing"

// TestDelayQueuePerDelay: Engine.Delay returns one queue per distinct delay,
// the same one on every call, and panics on a negative delay.
func TestDelayQueuePerDelay(t *testing.T) {
	e := New()
	q := e.Delay(100)
	if e.Delay(100) != q {
		t.Error("Delay(100) returned a second queue")
	}
	if e.Delay(0) == q || e.Delay(200) == q {
		t.Error("distinct delays share a queue")
	}
	if e.Delay(0) != e.Delay(0) {
		t.Error("Delay(0) returned a second queue")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.Delay(-1)
}
