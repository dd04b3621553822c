package fabric

// queue is a FIFO over a head-indexed ring buffer whose length is a power of
// two. Popping clears the slot and advances the head, so storage is reused
// instead of being sliced away: a queue that never drains keeps at most
// twice its peak depth, and steady-state push/pop allocates nothing.
type queue[T any] struct {
	buf  []T
	head int
	n    int
}

// minQueueCap is the backing size of a queue's first allocation.
const minQueueCap = 8

func (q *queue[T]) len() int { return q.n }

func (q *queue[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the head. The queue must not be empty.
func (q *queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the backing array, unwrapping the contents to start at 0.
func (q *queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = minQueueCap
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
