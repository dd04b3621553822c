package sim

// event is a single scheduled callback. Events are pooled: after an event
// fires or is canceled it returns to the engine's free list and its gen is
// bumped, so a Timer holding a stale (ev, gen) pair can detect that its
// occurrence is gone without keeping the event alive.
type event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among events at the same instant
	gen   uint64 // incremented on release; Timers match it to detect reuse
	fn    func()
	index int // position in the heap, -1 once popped
	// periodic marks a recurring timer's own event, which is never pooled.
	periodic bool
}

// lessEv orders events by (at, seq).
func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a concrete 4-ary indexed min-heap over (at, seq). A 4-ary
// layout halves the tree depth of a binary heap, trading a couple of extra
// sibling comparisons per level for far fewer cache-missing hops — a win for
// the sift-down-dominated pop path — and the concrete element type avoids
// container/heap's interface boxing and indirect calls entirely.
type eventHeap []*event

// push inserts ev and restores heap order.
func (h *eventHeap) push(ev *event) {
	n := len(*h)
	*h = append(*h, ev)
	ev.index = n
	h.up(n)
}

// popMin removes and returns the earliest event. Callers must check
// len(*h) > 0.
func (h *eventHeap) popMin() *event {
	old := *h
	ev := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		last.index = 0
		(*h).down(0)
	}
	ev.index = -1
	return ev
}

// removeAt deletes the event at heap position i (cancelation). The freed
// slot is filled by the last element, which is then sifted in whichever
// direction restores order.
func (h *eventHeap) removeAt(i int) *event {
	old := *h
	ev := old[i]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		last.index = i
		(*h).down(i)
		if last.index == i {
			(*h).up(i)
		}
	}
	ev.index = -1
	return ev
}

// up sifts h[i] toward the root.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !lessEv(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down sifts h[i] toward the leaves.
func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if lessEv(h[k], h[m]) {
				m = k
			}
		}
		if !lessEv(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}

// eventSlabSize is how many events one pool refill allocates at once, so a
// growing simulation amortizes its allocations instead of paying one per
// scheduled event.
const eventSlabSize = 64

// maxFreeEvents bounds the free list so a burst that briefly needed a huge
// heap does not pin that memory for the rest of the run.
const maxFreeEvents = 1 << 15

// acquire returns a recycled (or freshly slab-allocated) event.
func (e *Engine) acquire() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	slab := make([]event, eventSlabSize)
	for i := 1; i < eventSlabSize; i++ {
		e.free = append(e.free, &slab[i])
	}
	return &slab[0]
}

// release returns a consumed or canceled event to the free list. Bumping gen
// invalidates every Timer still pointing at it; dropping fn releases the
// closure (and everything it captures) to the GC immediately.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}
