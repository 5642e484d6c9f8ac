package netsim

// The engine's event queue is one binary min-heap ordered by (due,
// seq). Without a fault layer every due is twice its enqueue sequence,
// so the heap pops in FIFO order; a deferred delivery's due lands it
// after the deliveries enqueued behind it (enqueueLocked).

// dheap is a binary min-heap of deliveries ordered by (due, seq): the
// seq tie-break pops equal dues earliest-enqueued first, so reordered
// replays stay bit-identical.
type dheap struct {
	d []delivery
}

func dless(a, b delivery) bool {
	return a.due < b.due || (a.due == b.due && a.seq < b.seq)
}

func (h *dheap) len() int { return len(h.d) }

func (h *dheap) push(d delivery) {
	h.d = append(h.d, d)
	i := len(h.d) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !dless(h.d[i], h.d[p]) {
			break
		}
		h.d[i], h.d[p] = h.d[p], h.d[i]
		i = p
	}
}

// pop removes and returns the smallest delivery. It must not be called
// on an empty heap.
func (h *dheap) pop() delivery {
	top := h.d[0]
	last := len(h.d) - 1
	h.d[0] = h.d[last]
	h.d[last] = delivery{} // release the pkt reference
	h.d = h.d[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h.d) && dless(h.d[l], h.d[s]) {
			s = l
		}
		if r < len(h.d) && dless(h.d[r], h.d[s]) {
			s = r
		}
		if s == i {
			break
		}
		h.d[i], h.d[s] = h.d[s], h.d[i]
		i = s
	}
	return top
}

// reset drops all queued deliveries but keeps the backing array.
func (h *dheap) reset() {
	for i := range h.d {
		h.d[i] = delivery{}
	}
	h.d = h.d[:0]
}
