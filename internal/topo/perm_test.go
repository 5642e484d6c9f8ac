package topo

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPermPrefixMatchesPerm: permPrefix is rand.Perm's prefix, and the
// generator ends where Perm leaves it.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{1, 2, 7, 64, 1000, 4096, 16384, 100003} {
			for _, k := range []int{0, 1, n / 3, n} {
				ref := rand.New(rand.NewSource(seed))
				got := rand.New(rand.NewSource(seed))
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
	got := rand.New(rand.NewSource(7))
	bounds := rand.New(rand.NewSource(8))
	check := func(n int32) {
		t.Helper()
		if a, b := ref.Int31n(n), int31n(got, n); a != b {
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
