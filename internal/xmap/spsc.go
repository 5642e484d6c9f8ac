package xmap

import "sync/atomic"

// SPSC is a bounded lock-free single-producer/single-consumer queue — the
// handoff between a shard's probe-generation goroutine and its
// transmission pump (RingDriver). One goroutine may call Push,
// one other goroutine may call Pop/PopBatch; Len and Cap are safe from
// anywhere. The implementation is the classic power-of-two ring with
// monotonic head/tail counters: the producer owns tail, the consumer owns
// head, and each side caches its last view of the other's counter so the
// steady state costs one atomic store per operation and touches the
// opposing cache line only when its cached view goes stale.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	// head is the next slot to pop; only the consumer advances it.
	// cachedTail is the consumer's last observed tail.
	_          [64]byte // keep the counters on separate cache lines
	head       atomic.Uint64
	cachedTail uint64

	// tail is the next slot to push; only the producer advances it.
	// cachedHead is the producer's last observed head.
	_          [64]byte
	tail       atomic.Uint64
	cachedHead uint64
	_          [64]byte
}

// NewSPSC creates a queue holding up to capacity elements; capacity is
// rounded up to a power of two (minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the queue capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len returns the number of queued elements. It is a racy snapshot when
// both sides are running, exact when either side is quiescent.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// Push appends v, returning false when the queue is full. Producer side
// only.
func (q *SPSC[T]) Push(v T) bool {
	t := q.tail.Load()
	if t-q.cachedHead > q.mask {
		q.cachedHead = q.head.Load()
		if t-q.cachedHead > q.mask {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

// Pop removes and returns the oldest element, reporting false on an
// empty queue. Consumer side only.
func (q *SPSC[T]) Pop() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if h == q.cachedTail {
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero // release the element's references
	q.head.Store(h + 1)
	return v, true
}

// PopBatch fills dst with up to len(dst) queued elements and returns how
// many it took. Consumer side only.
func (q *SPSC[T]) PopBatch(dst []T) int {
	var zero T
	h := q.head.Load()
	avail := q.cachedTail - h
	if uint64(len(dst)) > avail {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - h
		if avail == 0 {
			return 0
		}
	}
	n := len(dst)
	if uint64(n) > avail {
		n = int(avail)
	}
	for i := 0; i < n; i++ {
		dst[i] = q.buf[(h+uint64(i))&q.mask]
		q.buf[(h+uint64(i))&q.mask] = zero
	}
	q.head.Store(h + uint64(n))
	return n
}
