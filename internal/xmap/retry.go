package xmap

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/uint128"
)

// retryEntry is one probed sub-prefix awaiting an answer. due is a
// probe-clock tick (probes sent so far); when the clock passes it
// without a validated response for dst, the target is re-probed.
type retryEntry struct {
	idx      uint128.Uint128 // window index of the sub-prefix
	dst      ipv6.Addr       // probe destination (recomputable from idx)
	due      uint64          // probe-clock tick the retry fires at
	attempts uint8           // probes already sent for this target
	answered bool            // tombstone set by a validated response
}

// retryRing is the bounded retry scheduler: a FIFO ring of unanswered
// targets, ordered by first-probe time. Ordering by due time is
// approximate — a backoff retry re-enters at the tail — which keeps
// every operation O(1); head-of-line entries gate dispatch. When the
// ring is full, new targets are dropped (and counted), bounding the
// scheduler's memory however lossy the path: the paper's week-long scans
// cannot afford per-target state proportional to the window.
type retryRing struct {
	entries []retryEntry
	head    int                 // slot of the oldest entry
	n       int                 // occupied slots (tombstones included)
	pending int                 // occupied minus tombstones
	byDst   map[ipv6.Addr]int32 // destination -> occupied slot
	dropped uint64              // pushes refused because the ring was full
}

// retryRingCap bounds the retry scheduler's memory: at most this many
// targets are tracked at once, and overflow is dropped and counted in
// Stats.RetryDropped. It is fixed; a variable only so that tests can
// overflow a small ring.
var retryRingCap = 1024

func newRetryRing(capacity int) *retryRing {
	return &retryRing{
		entries: make([]retryEntry, capacity),
		byDst:   make(map[ipv6.Addr]int32, capacity),
	}
}

// push enqueues a pending target; false (and a drop count) if full.
func (r *retryRing) push(e retryEntry) bool {
	if r.n == len(r.entries) {
		r.dropped++
		return false
	}
	slot := (r.head + r.n) % len(r.entries)
	r.entries[slot] = e
	r.byDst[e.dst] = int32(slot)
	r.n++
	r.pending++
	return true
}

// answered marks dst's entry as resolved and returns a copy of it (the
// caller dates the original probe from due and attempts); the tombstone
// is reclaimed when it reaches the head.
func (r *retryRing) answered(dst ipv6.Addr) (retryEntry, bool) {
	slot, ok := r.byDst[dst]
	if !ok {
		return retryEntry{}, false
	}
	e := r.entries[slot]
	r.entries[slot].answered = true
	delete(r.byDst, dst)
	r.pending--
	return e, true
}

// skipAnswered reclaims tombstones at the head.
func (r *retryRing) skipAnswered() {
	for r.n > 0 && r.entries[r.head].answered {
		r.entries[r.head] = retryEntry{}
		r.head = (r.head + 1) % len(r.entries)
		r.n--
	}
}

// popDue dequeues the head entry if its retry time has passed.
func (r *retryRing) popDue(clock uint64) (retryEntry, bool) {
	r.skipAnswered()
	if r.n == 0 || r.entries[r.head].due > clock {
		return retryEntry{}, false
	}
	e := r.entries[r.head]
	delete(r.byDst, e.dst)
	r.entries[r.head] = retryEntry{}
	r.head = (r.head + 1) % len(r.entries)
	r.n--
	r.pending--
	return e, true
}

// nextDue returns the head entry's retry tick, if any entry is pending.
func (r *retryRing) nextDue() (uint64, bool) {
	r.skipAnswered()
	if r.n == 0 {
		return 0, false
	}
	return r.entries[r.head].due, true
}

// appendState serializes the pending entries in FIFO order: count, then
// (index, due, attempts) per entry. Destinations are recomputed from the
// window index on restore.
func (r *retryRing) appendState(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.pending))
	for i := 0; i < r.n; i++ {
		e := &r.entries[(r.head+i)%len(r.entries)]
		if e.answered {
			continue
		}
		dst = binary.BigEndian.AppendUint64(dst, e.idx.Hi)
		dst = binary.BigEndian.AppendUint64(dst, e.idx.Lo)
		dst = binary.BigEndian.AppendUint64(dst, e.due)
		dst = append(dst, e.attempts)
	}
	return dst
}

// retryEntrySize is the serialized size of one pending entry.
const retryEntrySize = 8 + 8 + 8 + 1

// restoreState refills the ring from an appendState payload. targetFor
// recomputes each entry's probe destination (and thereby revalidates the
// stored index against the configured window).
func (r *retryRing) restoreState(data []byte, targetFor func(uint128.Uint128) (ipv6.Addr, error)) error {
	if len(data) < 4 {
		return fmt.Errorf("xmap: retry state truncated: %d bytes", len(data))
	}
	n := binary.BigEndian.Uint32(data[:4])
	data = data[4:]
	if uint64(len(data)) != uint64(n)*retryEntrySize {
		return fmt.Errorf("xmap: retry state %d bytes for %d entries", len(data), n)
	}
	if int(n) > len(r.entries) {
		return fmt.Errorf("xmap: retry state holds %d entries, ring capacity %d", n, len(r.entries))
	}
	for i := uint32(0); i < n; i++ {
		off := int(i) * retryEntrySize
		e := retryEntry{
			idx: uint128.New(binary.BigEndian.Uint64(data[off:]),
				binary.BigEndian.Uint64(data[off+8:])),
			due:      binary.BigEndian.Uint64(data[off+16:]),
			attempts: data[off+24],
		}
		if e.attempts == 0 {
			return fmt.Errorf("xmap: retry state entry %d has zero attempts", i)
		}
		dst, err := targetFor(e.idx)
		if err != nil {
			return fmt.Errorf("xmap: retry state entry %d: %w", i, err)
		}
		e.dst = dst
		if _, dup := r.byDst[dst]; dup {
			return fmt.Errorf("xmap: retry state repeats target %s", dst)
		}
		if !r.push(e) {
			return fmt.Errorf("xmap: retry state overflows ring")
		}
	}
	return nil
}
