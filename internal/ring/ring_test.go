package ring

import "testing"

func TestQueueMatchesSliceFIFO(t *testing.T) {
	// Interleaved pushes and pops wrap the head around and grow the ring
	// while it is wrapped; the order must stay that of a plain slice FIFO.
	var q Queue[int]
	var ref []int
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			ref = append(ref, next)
			next++
		}
		for i := 0; i < round%5 && len(ref) > 0; i++ {
			if *q.Front() != ref[0] {
				t.Fatalf("round %d: front %d, want %d", round, *q.Front(), ref[0])
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("round %d: pop %d, want %d", round, got, ref[0])
			}
			ref = ref[1:]
		}
		if len(ref) > 0 && *q.Back() != ref[len(ref)-1] {
			t.Fatalf("round %d: back %d, want %d", round, *q.Back(), ref[len(ref)-1])
		}
		if q.Len() != len(ref) {
			t.Fatalf("round %d: len %d, want %d", round, q.Len(), len(ref))
		}
		for i, v := range ref {
			if got := q.At(i); got != v {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, v)
			}
		}
		if c := q.Cap(); c&(c-1) != 0 || c < q.Len() {
			t.Fatalf("round %d: capacity %d for %d items, want a power of two that holds them", round, c, q.Len())
		}
	}
}
