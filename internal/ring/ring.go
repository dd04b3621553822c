// Package ring provides the FIFO that the simulator's per-packet and
// per-message hot paths queue through: a head-indexed ring buffer whose
// length is a power of two. Popping clears the slot and advances the head,
// so storage is reused instead of being sliced away: a queue that never
// drains keeps at most twice its peak depth, and steady-state push and pop
// allocate nothing.
package ring

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// minCap is the backing size of a queue's first allocation.
const minCap = 8

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the size of the backing array.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the head in place. The queue must not be empty.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Back returns the tail in place. The queue must not be empty.
func (q *Queue[T]) Back() *T { return &q.buf[(q.head+q.n-1)&(len(q.buf)-1)] }

// At returns the i-th item from the head, 0 <= i < Len.
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Pop removes and returns the head. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the backing array, unwrapping the contents to start at 0.
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = minCap
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
