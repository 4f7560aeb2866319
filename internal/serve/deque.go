package serve

// deque is a growable ring buffer used for the scheduler queues. Unlike
// the `q = q[1:]` idiom it replaces, popping from the front never
// abandons backing storage, so a warm queue cycles requests through the
// same allocation for the whole simulation — the hot path allocates only
// when a queue reaches a new high-water mark.
//
// The zero value is an empty, ready-to-use deque.
type deque[T any] struct {
	buf  []T // len(buf) is always a power of two (or zero)
	head int
	n    int
}

func (d *deque[T]) Len() int { return d.n }

// At returns the i-th element from the front (0 ≤ i < Len).
//
//litegpu:hotpath
func (d *deque[T]) At(i int) T {
	return d.buf[(d.head+i)&(len(d.buf)-1)]
}

// PushBack appends v at the tail.
//
//litegpu:hotpath
func (d *deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// PushFront inserts v before the current front.
//
//litegpu:hotpath
func (d *deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the front element. The vacated slot is
// zeroed so popped pointers are not retained by the buffer.
//
//litegpu:hotpath
func (d *deque[T]) PopFront() T {
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

// DiscardFront removes the first n elements, zeroing their slots.
//
//litegpu:hotpath
func (d *deque[T]) DiscardFront(n int) {
	var zero T
	for i := 0; i < n; i++ {
		d.buf[d.head] = zero
		d.head = (d.head + 1) & (len(d.buf) - 1)
	}
	d.n -= n
}

// grow doubles the buffer (starting at 16), re-linearizing the ring so
// head masks stay valid.
func (d *deque[T]) grow() {
	size := len(d.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]T, size)
	for i := 0; i < d.n; i++ {
		buf[i] = d.At(i)
	}
	d.buf = buf
	d.head = 0
}
