package topo

import "math/rand"

// permPrefix returns rand.New(src).Perm(n)[:k] and leaves src in exactly
// the state Perm leaves it. It still makes all n draws, so every later
// draw of the stream lands where it did; it only stops storing positions
// nobody reads. Step i of Perm writes m[i] = m[j] and m[j] = i for a
// drawn j <= i, so once i >= k the only write that can reach the prefix
// is m[j] = i with j < k, and memory is O(k) instead of O(n).
//
// Those n-k steps are the build's one per-cell loop, so they inline
// Uint64 and int31n with the register indices in locals, in unsigned
// 32-bit arithmetic: a draw is a non-negative 31-bit value and the bound
// is positive, so the rejection test and the modulus give int31n's
// values and consume its draws.
func permPrefix(src *source, n, k int) []int {
	m := make([]int, k)
	for i := 0; i < k; i++ {
		j := src.int31n(int32(i + 1))
		m[i] = m[j]
		m[j] = i
	}
	vec, tap, feed := &src.vec, src.tap, src.feed
	draw := func() uint32 {
		if tap--; tap < 0 {
			tap += srcLen
		}
		if feed--; feed < 0 {
			feed += srcLen
		}
		x := vec[feed] + vec[tap]
		vec[feed] = x
		return uint32(uint64(x) << 1 >> 33)
	}
	for i := k; i < n; i++ {
		bn := uint32(i + 1)
		v := draw()
		if v > 1<<31-1-bn {
			bound := 1<<31 - 1 - (1<<31)%bn
			for v > bound {
				v = draw()
			}
		}
		if j := int(v % bn); j < k {
			m[j] = i
		}
	}
	src.tap, src.feed = tap, feed
	return m
}

const (
	srcLen = 607 // the generator's long lag: the register length
	srcTap = 273 // its short lag
)

// source is math/rand's default generator as a concrete type: an
// additive lagged Fibonacci generator, x[i] = x[i-607] + x[i-273] mod
// 2^64. It yields exactly rand.NewSource(seed)'s stream, so rand.New(src)
// serves every ordinary draw unchanged, while permPrefix — one draw per
// window cell — calls it directly instead of through rand.Rand's
// interface.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed sets the state rand.NewSource(seed) starts in, recovered from
// that source's first 607 outputs rather than from a copy of math/rand's
// seeding table. Step i of the generator writes its output into register
// slot feed-i-1, so after 607 steps every slot holds one output; storing
// the outputs there gives that state, and undoing the 607 steps gives
// the start.
func (s *source) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, srcLen-srcTap
	for range srcLen {
		s.feed = (s.feed + srcLen - 1) % srcLen
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % srcLen
		s.feed = (s.feed + 1) % srcLen
	}
}

// Uint64 is rand.Source64's Uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rand.Source's Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// int31n matches (*rand.Rand).Int31n draw for draw. Int31n computes its
// rejection bound (1<<31)%n on every call; a draw can only fail that
// bound when it lands in the top n values of [0, 2^31), so the division
// is paid only there. For a power of two the bound is 2^31-1 and v%n is
// Int31n's mask.
func (s *source) int31n(n int32) int32 {
	v := int32(s.Int63() >> 32)
	if v > 1<<31-1-n {
		bound := int32(1<<31 - 1 - (1<<31)%uint32(n))
		for v > bound {
			v = int32(s.Int63() >> 32)
		}
	}
	return v % n
}
