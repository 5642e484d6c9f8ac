package xmap

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// pushAll pushes vs in order until the queue is full and returns how
// many it took: the batch a producer makes of Push.
func pushAll[T any](q *SPSC[T], vs []T) int {
	for i, v := range vs {
		if !q.Push(v) {
			return i
		}
	}
	return len(vs)
}

// TestSPSCCapacityRounding pins the power-of-two rounding and the minimum
// capacity.
func TestSPSCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024},
	} {
		if got := NewSPSC[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestSPSCEmptyAndFull exercises the two boundary states: popping empty
// fails without consuming anything, pushing full fails without
// overwriting anything, and both recover after the opposite operation.
func TestSPSCEmptyAndFull(t *testing.T) {
	q := NewSPSC[int](4)
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
	if n := q.PopBatch(make([]int, 4)); n != 0 {
		t.Fatalf("PopBatch on empty queue returned %d", n)
	}
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("Push %d on non-full queue failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("Push on full queue succeeded")
	}
	if n := pushAll(q, []int{99, 100}); n != 0 {
		t.Fatalf("pushAll on full queue took %d", n)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d after fill, want 4", q.Len())
	}
	// FIFO drain; then the queue is usable again.
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after drain succeeded")
	}
	if !q.Push(7) {
		t.Fatal("Push after drain failed")
	}
	if v, ok := q.Pop(); !ok || v != 7 {
		t.Fatalf("Pop = %d,%v, want 7,true", v, ok)
	}
}

// TestSPSCWraparound runs the indices far past the capacity so the
// monotonic counters wrap the buffer many times, verifying FIFO order is
// preserved across the seam.
func TestSPSCWraparound(t *testing.T) {
	q := NewSPSC[int](8)
	next := 0
	for round := 0; round < 1000; round++ {
		// Keep a partial fill so head and tail straddle the wrap point at
		// varying offsets.
		for q.Len() < 5 {
			if !q.Push(next) {
				t.Fatalf("round %d: push failed at len %d", round, q.Len())
			}
			next++
		}
		want := next - q.Len()
		for q.Len() > 2 {
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: Pop = %d,%v, want %d,true", round, v, ok, want)
			}
			want++
		}
	}
}

// TestSPSCBatchOps covers pushAll/PopBatch partial acceptance: a batch
// larger than the free space is truncated, a pop larger than the
// population is truncated, and order is preserved either way.
func TestSPSCBatchOps(t *testing.T) {
	q := NewSPSC[int](8)
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if n := pushAll(q, in); n != 8 {
		t.Fatalf("pushAll took %d, want 8 (capacity)", n)
	}
	dst := make([]int, 3)
	if n := q.PopBatch(dst); n != 3 {
		t.Fatalf("PopBatch = %d, want 3", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d, want %d", i, v, i)
		}
	}
	// 5 queued, 3 free: a 4-element batch is truncated to 3.
	if n := pushAll(q, []int{100, 101, 102, 103}); n != 3 {
		t.Fatalf("pushAll into 3 free slots took %d", n)
	}
	want := []int{3, 4, 5, 6, 7, 100, 101, 102}
	big := make([]int, 16)
	if n := q.PopBatch(big); n != len(want) {
		t.Fatalf("PopBatch = %d, want %d", n, len(want))
	}
	for i, w := range want {
		if big[i] != w {
			t.Fatalf("drain[%d] = %d, want %d", i, big[i], w)
		}
	}
}

// TestSPSCPropertyVsSliceModel drives a single-threaded queue with a
// pseudo-random mix of all four operations and checks every result
// against a plain slice model. Any divergence in acceptance counts,
// values, or Len fails.
func TestSPSCPropertyVsSliceModel(t *testing.T) {
	for _, capAsk := range []int{2, 3, 8, 64} {
		q := NewSPSC[int](capAsk)
		capacity := q.Cap()
		var model []int
		rng := rand.New(rand.NewSource(int64(0xABCD + capAsk)))
		next := 0
		for op := 0; op < 20000; op++ {
			switch rng.Intn(4) {
			case 0: // Push
				ok := q.Push(next)
				wantOK := len(model) < capacity
				if ok != wantOK {
					t.Fatalf("cap %d op %d: Push ok=%v, model ok=%v", capacity, op, ok, wantOK)
				}
				if ok {
					model = append(model, next)
				}
				next++
			case 1: // pushAll
				k := rng.Intn(capacity + 2)
				vs := make([]int, k)
				for i := range vs {
					vs[i] = next + i
				}
				n := pushAll(q, vs)
				wantN := min(k, capacity-len(model))
				if n != wantN {
					t.Fatalf("cap %d op %d: pushAll(%d) = %d, model %d", capacity, op, k, n, wantN)
				}
				model = append(model, vs[:n]...)
				next += n
			case 2: // Pop
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("cap %d op %d: Pop ok=%v with model len %d", capacity, op, ok, len(model))
				}
				if ok {
					if v != model[0] {
						t.Fatalf("cap %d op %d: Pop = %d, model %d", capacity, op, v, model[0])
					}
					model = model[1:]
				}
			case 3: // PopBatch
				k := rng.Intn(capacity + 2)
				dst := make([]int, k)
				n := q.PopBatch(dst)
				wantN := min(k, len(model))
				if n != wantN {
					t.Fatalf("cap %d op %d: PopBatch(%d) = %d, model %d", capacity, op, k, n, wantN)
				}
				for i := 0; i < n; i++ {
					if dst[i] != model[i] {
						t.Fatalf("cap %d op %d: PopBatch[%d] = %d, model %d", capacity, op, i, dst[i], model[i])
					}
				}
				model = model[n:]
			}
			if q.Len() != len(model) {
				t.Fatalf("cap %d op %d: Len = %d, model %d", capacity, op, q.Len(), len(model))
			}
		}
	}
}

// TestSPSCTwoGoroutineStress is the concurrency property test: one
// producer pushes a known sequence (mixing Push and pushAll), one
// consumer pops it (mixing Pop and PopBatch), and the consumer must see
// exactly the sequence 0..total-1 in order — no loss, no duplication, no
// reordering. Run under -race this also proves the ordering handshake
// (buffer write before tail store, head store after buffer read)
// publishes elements safely.
func TestSPSCTwoGoroutineStress(t *testing.T) {
	total := 200000
	if testing.Short() || raceEnabled {
		total = 20000
	}
	q := NewSPSC[int](64)
	var wg sync.WaitGroup
	wg.Add(2)

	go func() { // producer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		next := 0
		for next < total {
			if rng.Intn(2) == 0 {
				if q.Push(next) {
					next++
				} else {
					// On a single-core host a full ring otherwise burns
					// the whole preemption quantum before the consumer
					// can drain it.
					runtime.Gosched()
				}
				continue
			}
			k := min(rng.Intn(16)+1, total-next)
			vs := make([]int, k)
			for i := range vs {
				vs[i] = next + i
			}
			if n := pushAll(q, vs); n > 0 {
				next += n
			} else {
				runtime.Gosched()
			}
		}
	}()

	errc := make(chan string, 1)
	go func() { // consumer
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		want := 0
		dst := make([]int, 16)
		for want < total {
			if rng.Intn(2) == 0 {
				v, ok := q.Pop()
				if !ok {
					runtime.Gosched()
					continue
				}
				if v != want {
					select {
					case errc <- "Pop out of order":
					default:
					}
					return
				}
				want++
				continue
			}
			n := q.PopBatch(dst[:rng.Intn(16)+1])
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				if dst[i] != want {
					select {
					case errc <- "PopBatch out of order":
					default:
					}
					return
				}
				want++
			}
		}
	}()

	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after stress: Len = %d", q.Len())
	}
}

// TestSPSCReleasesReferences verifies popped slots are zeroed so the ring
// does not pin consumed elements (buffers) against garbage collection.
func TestSPSCReleasesReferences(t *testing.T) {
	q := NewSPSC[*int](4)
	v := new(int)
	q.Push(v)
	q.Pop()
	for i := range q.buf {
		if q.buf[i] != nil {
			t.Fatalf("slot %d still holds a reference after Pop", i)
		}
	}
	q.Push(v)
	dst := make([]*int, 1)
	q.PopBatch(dst)
	for i := range q.buf {
		if q.buf[i] != nil {
			t.Fatalf("slot %d still holds a reference after PopBatch", i)
		}
	}
}
