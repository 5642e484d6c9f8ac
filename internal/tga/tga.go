// Package tga implements a seed-based target generation algorithm in the
// family the paper's related work surveys (Entropy/IP, 6Gen, 6Tree):
// learn per-nybble value distributions from seed addresses, then sample
// candidate 128-bit targets from the learned distribution.
//
// The paper's Section I claim — such approaches are "significantly
// constrained by either seeds diversity or algorithm complexity" — is
// reproduced by the comparison tests: a model trained on one ISP's seeds
// keeps resampling the neighborhoods of those seeds, rediscovering the
// same peripheries, while the periphery scan covers every delegation
// with one probe each.
package tga

import (
	"fmt"
	"math/rand"

	"repro/internal/ipv6"
)

// nybbles is the number of 4-bit positions in an IPv6 address.
const nybbles = 32

// Model holds per-position nybble frequencies.
type Model struct {
	counts [nybbles][16]int
	seeds  int
}

// Train builds a model from seed addresses.
func Train(seeds []ipv6.Addr) (*Model, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("tga: no seeds")
	}
	m := &Model{seeds: len(seeds)}
	for _, a := range seeds {
		b := a.Bytes()
		for i := 0; i < nybbles; i++ {
			var nyb byte
			if i%2 == 0 {
				nyb = b[i/2] >> 4
			} else {
				nyb = b[i/2] & 0xf
			}
			m.counts[i][nyb]++
		}
	}
	return m, nil
}

// Generate samples n candidate addresses, each nybble drawn
// independently from its learned distribution (the core simplification
// all of these generators make, and the source of their seed-diversity
// ceiling).
func (m *Model) Generate(rng *rand.Rand, n int) []ipv6.Addr {
	out := make([]ipv6.Addr, 0, n)
	for k := 0; k < n; k++ {
		var b [16]byte
		for i := 0; i < nybbles; i++ {
			nyb := m.sample(rng, i)
			if i%2 == 0 {
				b[i/2] |= nyb << 4
			} else {
				b[i/2] |= nyb
			}
		}
		out = append(out, ipv6.AddrFromBytes(b[:]))
	}
	return out
}

// sample draws one nybble value for a position.
func (m *Model) sample(rng *rand.Rand, pos int) byte {
	r := rng.Intn(m.seeds)
	for v, c := range m.counts[pos] {
		if r < c {
			return byte(v)
		}
		r -= c
	}
	return 0
}
