// Package par runs independent jobs on a bounded number of goroutines.
//
// Sweep points, placement shards and simulation windows all use it: in each
// the width changes wall-clock time only, because every job writes its own
// index's result and the caller merges by index.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) and returns when every call
// has returned. At most min(workers, n) goroutines run the calls, the
// caller's among them, each claiming the next index from one shared
// counter. With workers <= 1 the calls run in index order on the caller's
// goroutine.
//
// A goroutine whose call panics claims no further index; once every other
// call has returned, For re-raises the first recovered value on the
// caller.
func For(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	l := &loop{n: n, fn: fn}
	workers = min(workers, n)
	l.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer l.wg.Done()
			l.work()
		}()
	}
	l.work()
	l.wg.Wait()
	if l.failed != nil {
		panic(l.failed)
	}
}

// loop is the state one parallel For call shares across its goroutines.
type loop struct {
	n      int
	fn     func(i int)
	next   atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	failed any // the first recovered panic
}

// work runs claimed indices until none remain or a call panics.
func (l *loop) work() {
	defer func() {
		if r := recover(); r != nil {
			l.mu.Lock()
			if l.failed == nil {
				l.failed = r
			}
			l.mu.Unlock()
		}
	}()
	for i := int(l.next.Add(1) - 1); i < l.n; i = int(l.next.Add(1) - 1) {
		l.fn(i)
	}
}
