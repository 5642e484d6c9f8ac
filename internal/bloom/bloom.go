// Package bloom implements a Bloom filter sized for response
// deduplication at scan scale, as ZMap-family scanners use to suppress
// duplicate replies without storing every responder address. The filter
// is memory-only: a scan checkpoint stores the exact responder list, and
// a resumed scan re-adds it (inserts are order-independent).
//
// The filter is cache-line blocked: each key selects one 512-bit block
// and sets all k of its bits inside it, so an insert or query touches
// exactly one line of a filter that is otherwise far larger than any
// cache — instead of k scattered lines — and derives every bit position
// with shifts and masks instead of a modulo. The price is a modestly
// higher false-positive rate than an unblocked filter of equal size
// (block loads vary around the mean); the constructor rounds the block
// count up to a power of two, which buys most of that slack back.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// blockWords is the block size in 64-bit words: 8 words, one 64-byte
// cache line.
const blockWords = 8

// Filter is a blocked Bloom filter over 16-byte keys (IPv6 addresses).
// Not safe for concurrent use; the scanner owns one per receive loop.
// Hashing uses explicit uint64 seeds (not hash/maphash, whose seeds are
// opaque), so a filter rebuilt in another process from the same seed and
// keys is bit-identical.
type Filter struct {
	bits  []uint64
	nbits uint64
	bmask uint64 // block count - 1 (power of two), derived from nbits
	k     int
	seed1 uint64
	seed2 uint64
	count uint64 // inserted keys (approximate population)
}

// New creates a filter dimensioned for n expected insertions at the given
// false-positive rate p (0 < p < 1), with hash seeds drawn from the
// global math/rand source. Use NewSeeded when replay determinism
// matters.
func New(n uint64, p float64) (*Filter, error) {
	return NewSeeded(n, p, rand.Uint64())
}

// NewSeeded is New with the hash seeds derived deterministically from
// seed: two filters built with equal parameters behave identically,
// insert for insert.
func NewSeeded(n uint64, p float64, seed uint64) (*Filter, error) {
	if n == 0 {
		return nil, fmt.Errorf("bloom: zero capacity")
	}
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("bloom: false-positive rate %v out of (0,1)", p)
	}
	// Optimal parameters: m = -n ln p / (ln 2)^2, k = m/n ln 2; then m
	// rounds up to a power-of-two count of 512-bit blocks so block
	// selection is a mask.
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	blocks := uint64(1)
	for blocks*512 < m {
		blocks *= 2
	}
	return &Filter{
		bits:  make([]uint64, blocks*blockWords),
		nbits: blocks * 512,
		bmask: blocks - 1,
		k:     k,
		seed1: mix64(seed ^ 0x736565642d6f6e65), // "seed-one"
		seed2: mix64(seed ^ 0x736565642d74776f), // "seed-two"
	}, nil
}

// mix64 is the splitmix64 finalizer, a full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashBytes hashes key under seed, eight bytes at a time.
func hashBytes(seed uint64, key []byte) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for len(key) >= 8 {
		h = mix64(h ^ binary.BigEndian.Uint64(key))
		key = key[8:]
	}
	if len(key) > 0 {
		var tail [8]byte
		copy(tail[:], key)
		h = mix64(h ^ binary.BigEndian.Uint64(tail[:]) ^ uint64(len(key)))
	}
	return mix64(h)
}

// hashPair hashes a 16-byte key held as two big-endian words — exactly
// hashBytes over its byte encoding, without the round trip through a
// buffer.
func hashPair(seed, hi, lo uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	h = mix64(h ^ hi)
	h = mix64(h ^ lo)
	return mix64(h)
}

// hashes derives the block selector and the in-block probe stride by
// double hashing (Kirsch-Mitzenmacher).
func (f *Filter) hashes(key []byte) (h1, h2 uint64) {
	return hashBytes(f.seed1, key), hashBytes(f.seed2, key) | 1 // odd stride
}

// addHash sets the k bits of h1's block; bit i sits at in-block
// position h1>>32 + i*h2 (mod 512, an odd stride, so the probe sequence
// cycles the whole block). One cache line, no division.
func (f *Filter) addHash(h1, h2 uint64) {
	base := (h1 & f.bmask) * blockWords
	pos := h1 >> 32
	for i := 0; i < f.k; i++ {
		f.bits[base+(pos>>6&(blockWords-1))] |= 1 << (pos & 63)
		pos += h2
	}
	f.count++
}

// containsHash is the query counterpart of addHash.
func (f *Filter) containsHash(h1, h2 uint64) bool {
	base := (h1 & f.bmask) * blockWords
	pos := h1 >> 32
	for i := 0; i < f.k; i++ {
		if f.bits[base+(pos>>6&(blockWords-1))]&(1<<(pos&63)) == 0 {
			return false
		}
		pos += h2
	}
	return true
}

// addIfAbsentHash is the fused probe-and-set under one hashing pass.
func (f *Filter) addIfAbsentHash(h1, h2 uint64) bool {
	base := (h1 & f.bmask) * blockWords
	pos := h1 >> 32
	absent := false
	for i := 0; i < f.k; i++ {
		w := &f.bits[base+(pos>>6&(blockWords-1))]
		m := uint64(1) << (pos & 63)
		if *w&m == 0 {
			absent = true
			*w |= m
		}
		pos += h2
	}
	f.count++
	return absent
}

// Add inserts key.
func (f *Filter) Add(key []byte) {
	h1, h2 := f.hashes(key)
	f.addHash(h1, h2)
}

// Contains reports whether key may have been inserted (false positives
// possible near the configured rate; false negatives never).
func (f *Filter) Contains(key []byte) bool {
	h1, h2 := f.hashes(key)
	return f.containsHash(h1, h2)
}

// AddIfAbsentUint64Pair inserts the 128-bit key held as two words and
// reports whether it was absent before the call — one hashing pass
// replacing the Contains-then-Add pair on a dedup hot path. Bit-for-bit
// equivalent to ContainsUint64Pair followed by AddUint64Pair.
func (f *Filter) AddIfAbsentUint64Pair(hi, lo uint64) bool {
	return f.addIfAbsentHash(hashPair(f.seed1, hi, lo), hashPair(f.seed2, hi, lo)|1)
}

// AddUint64Pair is a convenience for 128-bit keys held as two words.
func (f *Filter) AddUint64Pair(hi, lo uint64) {
	f.addHash(hashPair(f.seed1, hi, lo), hashPair(f.seed2, hi, lo)|1)
}

// ContainsUint64Pair is the query counterpart of AddUint64Pair.
func (f *Filter) ContainsUint64Pair(hi, lo uint64) bool {
	return f.containsHash(hashPair(f.seed1, hi, lo), hashPair(f.seed2, hi, lo)|1)
}

// Count returns the number of Add calls (not distinct keys).
func (f *Filter) Count() uint64 { return f.count }

// FillRatio returns the fraction of set bits, a saturation diagnostic.
func (f *Filter) FillRatio() float64 {
	var ones int
	for _, w := range f.bits {
		for ; w != 0; w &= w - 1 {
			ones++
		}
	}
	return float64(ones) / float64(f.nbits)
}
