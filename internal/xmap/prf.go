package xmap

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/ipv6"
)

// subPRF derives each sub-prefix's pseudo-random material — the host IID
// the probe targets (Section III-B's nonexistent-address IID) and the
// 32-bit stateless validation value. The scan seed is expanded once
// through HMAC-SHA256 into four 64-bit subkeys; per sub-prefix the
// derivation is a keyed splitmix64-style mixer (multiply-xorshift
// avalanche rounds over the keyed address limbs). The previous
// implementation ran the full HMAC per sub-prefix, which was over a
// quarter of the entire send path's CPU; the mixer is a few
// nanoseconds.
//
// The mixer is not a cryptographic MAC. For the simulator that trade is
// free — validation only needs to reject accidental and replayed
// traffic deterministically, and the adversary is the test suite. A
// production raw-socket driver wanting HMAC-grade validation against
// active spoofing swaps derive for a keyed MAC without touching the
// scanner: the cache and call sites are unchanged.
type subPRF struct {
	k0, k1, k2, k3 uint64
}

// prfLabel domain-separates the subkey expansion from other uses of the
// scan seed (the permutation derives its own keys independently).
var prfLabel = []byte("xmap-sub-prf-v1")

// newSubPRF expands seed into the mixer subkeys.
func newSubPRF(seed []byte) subPRF {
	mac := hmac.New(sha256.New, seed)
	mac.Write(prfLabel)
	sum := mac.Sum(nil)
	return subPRF{
		k0: binary.BigEndian.Uint64(sum[0:8]),
		k1: binary.BigEndian.Uint64(sum[8:16]),
		k2: binary.BigEndian.Uint64(sum[16:24]),
		k3: binary.BigEndian.Uint64(sum[24:32]),
	}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche on 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// derive maps one sub-prefix base address (as 128-bit limbs) to the
// host-IID limbs and the validation value. Both address limbs feed the
// shared core x, then each output word gets its own subkey and final
// avalanche so the words are pairwise independent.
func (p subPRF) derive(hi, lo uint64) (iidHi, iidLo uint64, val uint32) {
	x := mix64(mix64(hi^p.k0) ^ lo ^ p.k1)
	iidHi = mix64(x ^ p.k2)
	iidLo = mix64(x ^ p.k3)
	val = uint32(mix64(x + p.k0))
	return
}

// value is derive's validation value alone: the shared core and the val
// avalanche, three mixer rounds instead of five. The receive path needs
// only this word, and pays for it once per reply.
func (p subPRF) value(hi, lo uint64) uint32 {
	return uint32(mix64(mix64(mix64(hi^p.k0)^lo^p.k1) + p.k0))
}

// NewValidator returns the scanner's validation PRF keyed by seed, taken
// over the whole address: on a sub-prefix base address it returns what
// Scanner.Validation returns, under the same seed, for every address in
// that sub-prefix. Cooperating tools (the loop scanner) tag probes with
// it and classify replies through the scanner's own probe modules.
func NewValidator(seed []byte) Validator {
	p := newSubPRF(seedOrDefault(seed))
	return func(dst ipv6.Addr) uint32 {
		u := dst.Uint128()
		return p.value(u.Hi, u.Lo)
	}
}
