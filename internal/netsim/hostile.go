package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// HostileMode selects which adversarial responder model a Hostile node
// plays. The four models cover the false-hit and robustness threats the
// periphery papers report against Internet-scale scans: aliased prefixes
// that answer every address, spoofed-source reflectors, malformed
// ICMPv6 generators, and reply-storm amplifiers.
type HostileMode uint8

// Hostile responder models.
const (
	// HostileAliased answers every probe inside the claimed prefix as if
	// the probed address itself replied: echo requests draw an Echo Reply
	// from the probed target, everything else a plausible Destination
	// Unreachable quoting the probe verbatim. Every reply validates at
	// the scanner, so an undefended scan records one phantom responder
	// per probed address — the dominant false-hit source in real scans.
	HostileAliased HostileMode = iota + 1
	// HostileSpoofer reflects probes as ICMPv6 errors whose source is a
	// random IID inside one fixed /64 of the claimed region (a NAT box or
	// middlebox pool rewriting its own source), never the probed target.
	// The quoted probe is verbatim, so the replies pass HMAC validation
	// and pollute dedup with phantom responders that were never probed.
	// A fraction of probes instead draw a spoofed-source Echo Reply,
	// which fails validation (the echo id/seq commit to the probed
	// target) and exercises the quarantine path.
	HostileSpoofer
	// HostileMalformed answers with broken ICMPv6: corrupted checksums,
	// truncated bodies shorter than the ICMPv6 header, and well-formed
	// errors quoting a forged invoking packet (wrong embedded source).
	// Nothing it sends may crash the parser or reach the scan's result
	// set; the forged quote in particular passes checksum validation and
	// is only caught by strict embedded-source checking.
	HostileMalformed
	// HostileStorm answers each probe with StormFactor duplicate valid
	// replies from the probed target — an amplifier that floods the
	// receive path to force overload shedding.
	HostileStorm
)

// String names the mode for logs and profile labels.
func (m HostileMode) String() string {
	switch m {
	case HostileAliased:
		return "aliased"
	case HostileSpoofer:
		return "spoof"
	case HostileMalformed:
		return "malformed"
	case HostileStorm:
		return "storm"
	}
	return fmt.Sprintf("hostile(%d)", uint8(m))
}

// HostileConfig assembles a Hostile node.
type HostileConfig struct {
	Name   string
	Prefix ipv6.Prefix // claimed region, /56../64; delegate it to the node at the ISP router
	Mode   HostileMode
	Seed   int64
	// StormFactor is the reply multiplier for HostileStorm; default 4.
	StormFactor int
}

// Hostile is an adversarial responder claiming a whole delegated prefix.
// It is a terminal node like a CPE — single upstream interface, drops
// anything outside its prefix — and deliberately implements none of the
// flow-compilation hooks: the engine negative-caches flows through it,
// so every probe into the region takes the interpreted per-packet path
// while honest flows still compile. Its randomness is a private seeded
// stream drawn once per handled probe in arrival order, which is
// identical with the fast path on or off, keeping the compiled-vs-
// interpreted oracle exact under every hostile model.
type Hostile struct {
	name      string
	prefix    ipv6.Prefix
	mode      HostileMode
	storm     int
	addr      ipv6.Addr
	reflector ipv6.Prefix // spoofed-source pool: one /64 of the region
	ifc       *Iface
	rng       *rand.Rand
	sc        emitScratch
	pkts      [][]byte
	inner     []byte // the forged-quote variant's inner echo request

	// CountReplies tallies reply packets emitted, for amplification
	// accounting in tests.
	CountReplies uint64
}

var _ Node = (*Hostile)(nil)

// NewHostile builds a hostile responder; connect Iface() upstream and
// delegate the claimed prefix to it.
func NewHostile(cfg HostileConfig) *Hostile {
	h := &Hostile{
		name:   cfg.Name,
		prefix: cfg.Prefix,
		mode:   cfg.Mode,
		storm:  cfg.StormFactor,
		rng:    rand.New(rand.NewSource(cfg.Seed ^ 0x0b57_11e5)),
	}
	if h.storm <= 0 {
		h.storm = 4
	}
	// The node's own address sits in the region's first /64; the
	// spoofed-source pool is that same /64 (or the whole region when the
	// region already is a /64).
	h.addr = ipv6.AddrFrom128(cfg.Prefix.First().Uint128().Or(uint128.From64(0xbad1)))
	h.reflector = cfg.Prefix
	if cfg.Prefix.Bits() < 64 {
		h.reflector, _ = cfg.Prefix.Sub(64, uint128.Zero)
	}
	h.ifc = NewIface(h, h.addr, cfg.Name+":wan")
	return h
}

// Name implements Node.
func (h *Hostile) Name() string { return h.name }

// Iface returns the node's single upstream interface.
func (h *Hostile) Iface() *Iface { return h.ifc }

// Prefix returns the claimed region.
func (h *Hostile) Prefix() ipv6.Prefix { return h.prefix }

// Mode returns the responder model.
func (h *Hostile) Mode() HostileMode { return h.mode }

// hostileAddrIn returns an address inside p with host bits drawn from
// iid. Regions are /56 or narrower, so host bits always fit in 64.
func hostileAddrIn(p ipv6.Prefix, iid uint64) ipv6.Addr {
	host := 128 - p.Bits()
	mask := ^uint64(0)
	if host < 64 {
		mask = 1<<uint(host) - 1
	}
	return ipv6.AddrFrom128(p.First().Uint128().Or(uint128.From64(iid & mask)))
}

// Handle implements Node.
func (h *Hostile) Handle(in *Iface, pkt []byte) []Emission {
	dst, ok := wire.ForwardDst(pkt)
	if !ok || !h.prefix.Contains(dst) {
		return nil
	}
	// Even a hostile box must not answer ICMPv6 errors: error storms
	// would make scenarios diverge on unrelated error traffic.
	if isICMPError(pkt) {
		return nil
	}
	var ems []Emission
	switch h.mode {
	case HostileAliased:
		ems = h.replyAliased(in, dst, pkt)
	case HostileSpoofer:
		ems = h.replySpoofed(in, dst, pkt)
	case HostileMalformed:
		ems = h.replyMalformed(in, dst, pkt)
	case HostileStorm:
		ems = h.replyStorm(in, dst, pkt)
	}
	h.CountReplies += uint64(len(ems))
	return ems
}

// replyAliased: the probed address itself appears to answer.
func (h *Hostile) replyAliased(in *Iface, dst ipv6.Addr, pkt []byte) []Emission {
	if isEchoRequest(pkt) {
		return h.sc.emit(in, h.sc.echoReply(in, dst, pkt))
	}
	return h.sc.emit(in, icmpError(in, dst, pkt, wire.ICMPDestUnreach, wire.UnreachAddress))
}

// replySpoofed: errors (and occasional echo replies) sourced from the
// reflector pool, never the probed target. Exactly two RNG draws per
// probe regardless of branch, so the stream stays aligned across runs.
func (h *Hostile) replySpoofed(in *Iface, dst ipv6.Addr, pkt []byte) []Emission {
	iid := h.rng.Uint64()
	variant := h.rng.Intn(4)
	src := hostileAddrIn(h.reflector, iid)
	if variant == 0 && isEchoRequest(pkt) {
		// Spoofed-source echo reply: fails the scanner's HMAC check
		// (id/seq commit to the probed target) — quarantine fodder.
		return h.sc.emit(in, h.sc.echoReply(in, src, pkt))
	}
	return h.sc.emit(in, icmpError(in, src, pkt, wire.ICMPDestUnreach, wire.UnreachNoRoute))
}

// replyMalformed: three rotating corruption variants, all sourced from
// inside the probed target's /64 so the scanner's quarantine detector
// can attribute them to the hostile region.
func (h *Hostile) replyMalformed(in *Iface, dst ipv6.Addr, pkt []byte) []Emission {
	iid := h.rng.Uint64()
	iid2 := h.rng.Uint64()
	variant := h.rng.Intn(3)
	switch variant {
	case 0:
		// Corrupted checksum: a valid reply from the target with one
		// checksum byte flipped. Fails ParseICMPv6's checksum verify.
		out := h.sc.echoReply(in, dst, pkt)
		if out == nil {
			return nil
		}
		out[wire.HeaderLen+2] ^= 0xff
		return h.sc.emit(in, out)
	case 1:
		// Truncated: outer IPv6 header intact, payload length patched to
		// a 4-byte stub — shorter than the ICMPv6 header itself.
		out := h.sc.echoReply(in, dst, pkt)
		if out == nil || len(out) < wire.HeaderLen+4 {
			return nil
		}
		out = out[:wire.HeaderLen+4]
		binary.BigEndian.PutUint16(out[4:6], 4)
		return h.sc.emit(in, out)
	default:
		// Wrong embedded quote: a checksum-valid Destination Unreachable
		// quoting a forged invoking packet whose inner source is not the
		// scanner. Passes legacy validation (the inner dst/id/seq are
		// real); only a strict embedded-source check rejects it.
		s := &h.sc.sum
		if err := s.Parse(pkt); err != nil || s.ICMP == nil || s.ICMP.Type != wire.ICMPEchoRequest {
			return nil
		}
		e, err := wire.ParseEcho(s.ICMP.Body)
		if err != nil {
			return nil
		}
		scanner := s.IP.Src
		inner, err := wire.AppendEchoRequest(h.inner, hostileAddrIn(dst.Prefix64(), iid2), dst, 64, e.ID, e.Seq, e.Data)
		if err != nil {
			return nil
		}
		h.inner = inner
		out, err := wire.AppendDestUnreach(in.buf(wire.ErrorLen(inner)), hostileAddrIn(dst.Prefix64(), iid), scanner,
			wire.MaxHopLimit, wire.UnreachAddress, inner)
		if err != nil {
			return nil
		}
		return h.sc.emit(in, out)
	}
}

// replyStorm: StormFactor identical valid replies from the probed
// target, each in its own buffer (in-flight hop-limit decrements mutate
// packets in place, so duplicates must not share storage).
func (h *Hostile) replyStorm(in *Iface, dst ipv6.Addr, pkt []byte) []Emission {
	var base []byte
	if isEchoRequest(pkt) {
		base = h.sc.echoReply(in, dst, pkt)
	} else {
		base = icmpError(in, dst, pkt, wire.ICMPDestUnreach, wire.UnreachAddress)
	}
	if base == nil {
		return nil
	}
	h.pkts = append(h.pkts[:0], base)
	for i := 1; i < h.storm; i++ {
		h.pkts = append(h.pkts, append(in.buf(len(base))[:0], base...))
	}
	return h.sc.emitAll(in, h.pkts)
}
