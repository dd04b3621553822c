package par

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestForRunsEveryIndexOnce: every index in [0, n) runs exactly once at
// any width, including widths below 1 and above n.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for _, workers := range []int{-1, 0, 1, 2, 3, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				counts := make([]atomic.Int32, n)
				For(n, workers, func(i int) { counts[i].Add(1) })
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
					}
				}
			})
		}
	}
}

// TestForSerialRunsInOrderOnCaller: at workers <= 1 the jobs run in index
// order on the calling goroutine.
func TestForSerialRunsInOrderOnCaller(t *testing.T) {
	caller := goid()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		For(6, workers, func(i int) {
			if g := goid(); g != caller {
				t.Errorf("workers=%d: job %d ran on goroutine %s, caller is %s", workers, i, g, caller)
			}
			order = append(order, i)
		})
		if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
			t.Errorf("workers=%d: order %v", workers, order)
		}
	}
}

// TestForBoundsJobsInFlight: no more than workers jobs run at once.
func TestForBoundsJobsInFlight(t *testing.T) {
	for _, workers := range []int{2, 3, 5} {
		var inFlight, peak atomic.Int32
		For(200, workers, func(int) {
			now := inFlight.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
		})
		if p := peak.Load(); p > int32(workers) {
			t.Errorf("workers=%d: %d jobs in flight", workers, p)
		}
	}
}

// TestForPanicWaitsForOtherJobs: a panicking job is re-raised on the
// caller, carrying the first recovered value, only after every other job
// has returned.
func TestForPanicWaitsForOtherJobs(t *testing.T) {
	const n = 16
	var started, returned atomic.Int32
	panicked := make(chan struct{})
	got := func() (r any) {
		defer func() { r = recover() }()
		For(n, 3, func(i int) {
			started.Add(1)
			if i == 0 {
				defer close(panicked)
				panic("first")
			}
			<-panicked
			// Stay busy after the first panic so a For that returned
			// early would see this job still running.
			for k := 0; k < 100; k++ {
				runtime.Gosched()
			}
			returned.Add(1)
			if i == 1 {
				panic("second")
			}
		})
		return nil
	}()
	if got != "first" {
		t.Fatalf("recovered %v, want first", got)
	}
	// Job 0 and job 1 panic; every other started job must have returned.
	if s, r := started.Load(), returned.Load(); r != s-1 {
		t.Fatalf("%d jobs started, %d returned before For re-raised", s, r)
	}
}
