package sim

// FIFO is a FIFO queue that reuses its backing array: it rewinds to the
// front whenever it drains, so a steady push/pop cycle allocates nothing.
// When full it compacts instead of growing if at least half the array is
// already popped, which keeps both paths amortized O(1). The zero value is
// an empty queue. Process wait queues and the entries of a Lane use it.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Peek returns the oldest element; the queue must not be empty.
func (q *FIFO[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the oldest element; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}
