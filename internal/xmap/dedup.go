package xmap

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/bloom"
	"repro/internal/ipv6"
	"repro/internal/uint128"
)

// dedupSet suppresses duplicate responders. Two implementations back the
// ablation in DESIGN.md: an exact map (unbounded memory, no false
// positives) and a Bloom filter (fixed memory, responders may very
// rarely be dropped as presumed duplicates). A run holds one (seenSet).
// Neither is persisted: a checkpoint stores the exact responder list,
// and a resumed run re-adds that list once, so it keeps suppressing
// responders the handler was already given.
type dedupSet interface {
	seen(a ipv6.Addr) bool
	// checkAdd is the fused seen-then-add of the receive hot path: it
	// records a and reports whether it was new (one hashing/probing pass
	// instead of two).
	checkAdd(a ipv6.Addr) bool
}

// mapDedup is the exact-set implementation. It also counts responses per
// responder, which downstream analysis uses to separate infrastructure
// (which answers for thousands of probe destinations) from peripheries
// (which answer for one or two).
type mapDedup map[ipv6.Addr]uint64

var _ dedupSet = (mapDedup)(nil)

func (m mapDedup) seen(a ipv6.Addr) bool { return m[a] > 0 }

func (m mapDedup) checkAdd(a ipv6.Addr) bool {
	c := m[a]
	m[a] = c + 1
	return c == 0
}

// bloomDedup wraps the Bloom filter. last is the responder checkAdd
// answered for most recently: a repeat of it — the common case, one
// router's errors for a run of unassigned targets — is a duplicate
// without hashing. That is exact, since the filter has no false
// negatives: once checkAdd has set a key's bits, the filter reports it
// present for good.
type bloomDedup struct {
	f        *bloom.Filter
	last     ipv6.Addr
	haveLast bool
}

var _ dedupSet = (*bloomDedup)(nil)

// newBloomDedup sizes the filter for the scan space (capped: responders
// cannot outnumber probes, and beyond 16M entries the map of a real scan
// would be replaced by this filter anyway). The filter's hash seeds are
// derived from the scan seed, so replayed scans dedup identically.
func newBloomDedup(space uint128.Uint128, scanSeed []byte) (*bloomDedup, error) {
	n := uint64(1 << 24)
	if space.Hi == 0 && space.Lo < n {
		n = space.Lo
	}
	if n < 1024 {
		n = 1024
	}
	sum := sha256.Sum256(append([]byte("xmap-dedup-"), scanSeed...))
	f, err := bloom.NewSeeded(n, 1e-4, binary.BigEndian.Uint64(sum[:8]))
	if err != nil {
		return nil, err
	}
	return &bloomDedup{f: f}, nil
}

func (b *bloomDedup) seen(a ipv6.Addr) bool {
	u := a.Uint128()
	return b.f.ContainsUint64Pair(u.Hi, u.Lo)
}

func (b *bloomDedup) checkAdd(a ipv6.Addr) bool {
	if b.haveLast && a == b.last {
		return false
	}
	b.last, b.haveLast = a, true
	u := a.Uint128()
	return b.f.AddIfAbsentUint64Pair(u.Hi, u.Lo)
}
