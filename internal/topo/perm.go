package topo

import "math/rand"

// permPrefix returns rng.Perm(n)[:k] and leaves rng in exactly the state
// rng.Perm(n) leaves it. It still makes all n draws, so every later draw
// of the stream lands where it did; it only stops storing positions
// nobody reads. Step i of Perm writes m[i] = m[j] and m[j] = i for a
// drawn j <= i, so once i >= k the only write that can reach the prefix
// is m[j] = i with j < k, and memory is O(k) instead of O(n).
func permPrefix(rng *rand.Rand, n, k int) []int {
	m := make([]int, k)
	for i := 0; i < k; i++ {
		j := int31n(rng, int32(i+1))
		m[i] = m[j]
		m[j] = i
	}
	for i := k; i < n; i++ {
		if j := int(int31n(rng, int32(i+1))); j < k {
			m[j] = i
		}
	}
	return m
}

// int31n matches (*rand.Rand).Int31n draw for draw. Int31n computes its
// rejection bound (1<<31)%n on every call; a draw can only fail that
// bound when it lands in the top n values of [0, 2^31), so the division
// is paid only there. For a power of two the bound is 2^31-1 and v%n is
// Int31n's mask.
func int31n(rng *rand.Rand, n int32) int32 {
	v := int32(rng.Int63() >> 32)
	if v > 1<<31-1-n {
		bound := int32(1<<31 - 1 - (1<<31)%uint32(n))
		for v > bound {
			v = int32(rng.Int63() >> 32)
		}
	}
	return v % n
}
