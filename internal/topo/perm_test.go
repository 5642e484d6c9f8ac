package topo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSourceMatchesMathRand: source yields rand.NewSource's stream, raw
// and through rand.New, for seeds that exercise every branch of
// math/rand's seed reduction (zero, negative, the 2^31-1 modulus and its
// neighbours, the seed zero maps to, and the extremes of int64).
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 62, math.MinInt64}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for i := 0; i < 1_000_000; i++ {
			if i%2 == 0 {
				if a, b := ref.Uint64(), got.Uint64(); a != b {
					t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand gives %d", seed, i, b, a)
				}
			} else if a, b := ref.Int63(), got.Int63(); a != b {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, i, b, a)
			}
		}

		want, have := rand.New(rand.NewSource(seed)), rand.New(newSource(seed))
		for i := 0; i < 10_000; i++ {
			if a, b := want.Float64(), have.Float64(); a != b {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand gives %v", seed, i, b, a)
			}
			n := 1 + i*7919
			if a, b := want.Intn(n), have.Intn(n); a != b {
				t.Fatalf("seed %d: Intn(%d) draw %d = %d, math/rand gives %d", seed, n, i, b, a)
			}
			if a, b := want.Intn(1<<40+n), have.Intn(1<<40+n); a != b {
				t.Fatalf("seed %d: Intn(2^40+%d) draw %d = %d, math/rand gives %d", seed, n, i, b, a)
			}
			if a, b := want.Int31n(int32(n)), have.Int31n(int32(n)); a != b {
				t.Fatalf("seed %d: Int31n(%d) draw %d = %d, math/rand gives %d", seed, n, i, b, a)
			}
		}
		if a, b := want.Perm(5000), have.Perm(5000); !slices.Equal(a, b) {
			t.Fatalf("seed %d: Perm differs from math/rand's", seed)
		}
	}
}

// TestPermPrefixMatchesPerm: permPrefix is rand.Perm's prefix, and the
// generator ends where Perm leaves it.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{1, 2, 7, 64, 1000, 4096, 16384, 100003} {
			for _, k := range []int{0, 1, n / 3, n} {
				ref := rand.New(rand.NewSource(seed))
				got := newSource(seed)
				want := ref.Perm(n)[:k]
				if p := permPrefix(got, n, k); !slices.Equal(p, want) {
					t.Fatalf("seed %d n %d k %d: permPrefix differs from Perm's prefix", seed, n, k)
				}
				for i := 0; i < 8; i++ {
					if a, b := ref.Int63(), got.Int63(); a != b {
						t.Fatalf("seed %d n %d k %d: draw %d after the shuffle %d, Perm leaves %d", seed, n, k, i, b, a)
					}
				}
			}
		}
	}
}

// TestInt31nMatchesRand: int31n returns what Int31n returns and consumes
// the same draws, including bounds where most of the range is rejected.
func TestInt31nMatchesRand(t *testing.T) {
	ref := rand.New(rand.NewSource(7))
	got := newSource(7)
	bounds := rand.New(rand.NewSource(8))
	check := func(n int32) {
		t.Helper()
		if a, b := ref.Int31n(n), got.int31n(n); a != b {
			t.Fatalf("int31n(%d) = %d, Int31n = %d", n, b, a)
		}
		// The generators must also agree on what comes next. Comparing
		// advances both by one draw, which keeps them in step.
		if a, b := ref.Int63(), got.Int63(); a != b {
			t.Fatalf("after int31n(%d): generator state differs", n)
		}
	}
	for i := 0; i < 1_000_000; i++ {
		check(1 + bounds.Int31n(1<<31-1))
	}
	for i := 0; i < 10_000; i++ {
		check(1<<30 + 1)
		check(1<<31 - 1)
	}
}
