// Package subnet implements the paper's Section IV-A sub-prefix length
// inference: find one periphery by probing random /64s of an ISP block,
// then flip target-address bits from the 64th toward the 32nd and watch
// when the responder changes — the first differing bit position is the
// delegation boundary (Table I's "Length" column).
package subnet

import (
	"fmt"
	"math/rand"

	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
)

// Options tunes the inference.
type Options struct {
	// Seed keys target selection.
	Seed int64
	// MaxPreliminary bounds the number of random /64 probes used to find
	// the first periphery (default 512).
	MaxPreliminary int
	// Repeats is how many independent inferences are combined by
	// majority (default 3), the paper's "replicate the test several
	// times".
	Repeats int
	// MinLength is the shallowest boundary probed (default 32).
	MinLength int
}

func (o *Options) fill() {
	if o.MaxPreliminary == 0 {
		o.MaxPreliminary = 512
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.MinLength == 0 {
		o.MinLength = 32
	}
}

// Result is one block's inference outcome.
type Result struct {
	Block  ipv6.Prefix
	Length int
	// Samples lists each repeat's individual answer.
	Samples []int
	// Periphery is the (last) periphery the walk anchored on.
	Periphery ipv6.Addr
}

// Infer determines the delegated sub-prefix length for end users of the
// given ISP block, scanning through drv.
func Infer(drv xmap.PacketDriver, block ipv6.Prefix, opts Options) (Result, error) {
	opts.fill()
	if block.Bits() >= 64 {
		return Result{}, fmt.Errorf("subnet: block %s too long to infer within", block)
	}
	if opts.MinLength <= block.Bits() {
		opts.MinLength = block.Bits() + 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	res := Result{Block: block, Length: -1}
	// Every probe carries echo id 0x5bac and sequence number 1.
	x := xmap.NewEchoExchange(drv, 64, func(ipv6.Addr) uint32 { return 0x5bac_0001 })

	counts := map[int]int{}
	for r := 0; r < opts.Repeats; r++ {
		target, responder, err := findPeriphery(x, block, rng, opts.MaxPreliminary)
		if err != nil {
			return res, err
		}
		length, err := walkBoundary(x, target, responder, opts.MinLength)
		if err != nil {
			return res, err
		}
		res.Samples = append(res.Samples, length)
		res.Periphery = responder
		counts[length]++
	}
	best, bestN := -1, 0
	for l, n := range counts {
		if n > bestN || (n == bestN && l > best) {
			best, bestN = l, n
		}
	}
	res.Length = best
	return res, nil
}

// findPeriphery probes random /64 sub-prefixes of the block until an
// error arrives from a periphery-like address. Following the paper, a
// responder qualifies when its interface identifier is EUI-64 format,
// when the error is the NDP address-unreachable signature, or when the
// responder is not one of the provider's infrastructure addresses (which
// betray themselves by answering for many unrelated sub-prefixes).
func findPeriphery(x *xmap.EchoExchange, block ipv6.Prefix, rng *rand.Rand, maxProbes int) (target, responder ipv6.Addr, err error) {
	n64, _ := block.NumSub(64)
	seen := map[ipv6.Addr]int{}
	const infraThreshold = 3
	for i := 0; i < maxProbes; i++ {
		idx := uint128.From64(rng.Uint64()).Mod(n64)
		sub, serr := block.Sub(64, idx)
		if serr != nil {
			return ipv6.Addr{}, ipv6.Addr{}, serr
		}
		dst := ipv6.SLAAC(sub, rng.Uint64()|1)
		r, ok, perr := x.Ping(dst)
		if perr != nil {
			return ipv6.Addr{}, ipv6.Addr{}, perr
		}
		// An echo reply means the random IID exists: astonishing luck,
		// but no periphery.
		if !ok || r.Kind == xmap.KindEchoReply {
			continue
		}
		seen[r.Responder]++
		switch {
		case r.Kind == xmap.KindDestUnreach && r.Code == wire.UnreachAddress:
			return dst, r.Responder, nil
		case ipv6.Classify(r.Responder) == ipv6.IIDEUI64:
			return dst, r.Responder, nil
		case i >= 8 && seen[r.Responder] < infraThreshold:
			// A fresh responder once the infrastructure addresses have
			// revealed themselves by repetition.
			return dst, r.Responder, nil
		}
	}
	return ipv6.Addr{}, ipv6.Addr{}, fmt.Errorf("subnet: no periphery found in %s after %d probes", block, maxProbes)
}

// walkBoundary flips target bits from position 64 upward (toward shorter
// prefixes) until the responder changes; the first differing position is
// the boundary length.
func walkBoundary(x *xmap.EchoExchange, target, responder ipv6.Addr, minLength int) (int, error) {
	for b := 64; b > minLength; b-- {
		// Bit b in prefix-notation is bit (128-b) counting from the LSB.
		flipped := ipv6.AddrFrom128(target.Uint128().Xor(uint128.One.Lsh(uint(128 - b))))
		r, ok, err := x.Ping(flipped)
		if err != nil {
			return 0, err
		}
		if !ok || r.Responder != responder {
			return b, nil
		}
	}
	return minLength, nil
}
