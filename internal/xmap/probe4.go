package xmap

import (
	"fmt"
	"strings"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// RawProbeModule is implemented by probe modules that parse received
// packets themselves — the IPv4 modules, whose wire format the default
// IPv6 receive path cannot decode, and icmp6_echoscan, whose one-pass
// classifier skips that path's general decode. XMap treats IPv4 targets as
// IPv4-mapped IPv6 addresses internally, so the iterator, validation and
// dedup machinery is shared across families (Section IV-B: the address
// generation module permutes "any address space ... such as
// 192.168.0.0/20-25").
type RawProbeModule interface {
	ProbeModule
	// ClassifyRaw inspects an undecoded packet.
	ClassifyRaw(raw []byte, validate Validator) (Response, bool)
}

// ICMPEcho4Probe is the IPv4 counterpart of icmp6_echoscan. Targets and
// responders are carried as IPv4-mapped IPv6 addresses.
type ICMPEcho4Probe struct {
	// TTL of outgoing probes (default 64).
	TTL uint8
}

var _ RawProbeModule = (*ICMPEcho4Probe)(nil)

// Name implements ProbeModule.
func (p *ICMPEcho4Probe) Name() string { return "icmp4_echoscan" }

func (p *ICMPEcho4Probe) ttl() uint8 {
	if p.TTL == 0 {
		return 64
	}
	return p.TTL
}

// AppendProbe implements ProbeModule; it builds afresh and ignores buf.
// src and dst must be IPv4-mapped.
func (p *ICMPEcho4Probe) AppendProbe(_ []byte, src, dst ipv6.Addr, val uint32) ([]byte, error) {
	s4, ok := src.AsV4()
	if !ok {
		return nil, fmt.Errorf("xmap: icmp4 probe source %s not IPv4-mapped", src)
	}
	d4, ok := dst.AsV4()
	if !ok {
		return nil, fmt.Errorf("xmap: icmp4 probe target %s not IPv4-mapped", dst)
	}
	return wire.BuildEchoRequest4(wire.IPv4Addr(s4), wire.IPv4Addr(d4), p.ttl(),
		uint16(val>>16), uint16(val), nil)
}

// Classify implements ProbeModule; the v6-decoded path never matches.
func (p *ICMPEcho4Probe) Classify(*wire.Summary, Validator) (Response, bool) {
	return Response{}, false
}

// ClassifyRaw implements RawProbeModule.
func (p *ICMPEcho4Probe) ClassifyRaw(raw []byte, validate Validator) (Response, bool) {
	sum, err := wire.ParsePacket4(raw)
	if err != nil || sum.ICMP == nil {
		return Response{}, false
	}
	switch sum.ICMP.Type {
	case wire.ICMP4EchoReply:
		responder := ipv6.V4Mapped(uint32(sum.IP.Src))
		val := validate(responder)
		if sum.EchoID != uint16(val>>16) || sum.EchoSeq != uint16(val) {
			return Response{}, false
		}
		return Response{Responder: responder, ProbeDst: responder, Kind: KindEchoReply}, true

	case wire.ICMP4DestUnreach, wire.ICMP4TimeExceeded:
		if sum.Quoted == nil || !sum.QuotedEchoValid {
			return Response{}, false
		}
		probeDst := ipv6.V4Mapped(uint32(sum.Quoted.Dst))
		val := validate(probeDst)
		if sum.QuotedEchoID != uint16(val>>16) || sum.QuotedEchoSeq != uint16(val) {
			return Response{}, false
		}
		kind := KindDestUnreach
		if sum.ICMP.Type == wire.ICMP4TimeExceeded {
			kind = KindTimeExceeded
		}
		return Response{
			Responder: ipv6.V4Mapped(uint32(sum.IP.Src)),
			ProbeDst:  probeDst,
			Kind:      kind,
			Code:      sum.ICMP.Code,
		}, true
	}
	return Response{}, false
}

// V4Window builds the scan window for dotted-quad notation, e.g.
// V4Window("10.0.0.0", 8, 24) is the paper's "10.0.0.0/8-24": iterate
// every /24 of 10/8. Internally it is the IPv4-mapped IPv6 window
// ::ffff:a00:0/104-120.
func V4Window(base wire.IPv4Addr, from, to int) (ipv6.Window, error) {
	if from < 0 || from >= to || to > 32 {
		return ipv6.Window{}, fmt.Errorf("xmap: v4 window /%d-%d invalid", from, to)
	}
	prefix, err := ipv6.NewPrefix(ipv6.V4Mapped(uint32(base)), 96+from)
	if err != nil {
		return ipv6.Window{}, err
	}
	return ipv6.NewWindow(prefix, 96+to)
}

// ParseV4Window parses "a.b.c.d/from-to" notation, the paper's IPv4
// window syntax (e.g. "192.168.0.0/20-25").
func ParseV4Window(s string) (ipv6.Window, error) {
	addrPart, rangePart, ok := strings.Cut(s, "/")
	if !ok {
		return ipv6.Window{}, fmt.Errorf("xmap: v4 window %q missing '/'", s)
	}
	fromS, toS, ok := strings.Cut(rangePart, "-")
	if !ok {
		return ipv6.Window{}, fmt.Errorf("xmap: v4 window %q missing '-'", s)
	}
	from, err := ipv6.ParseLength(fromS, 32)
	if err != nil {
		return ipv6.Window{}, fmt.Errorf("xmap: bad v4 window lower bound in %q", s)
	}
	to, err := ipv6.ParseLength(toS, 32)
	if err != nil {
		return ipv6.Window{}, fmt.Errorf("xmap: bad v4 window upper bound in %q", s)
	}
	v4, err := ipv6.ParseDottedQuad(addrPart)
	if err != nil {
		return ipv6.Window{}, fmt.Errorf("xmap: bad v4 address in %q: %w", s, err)
	}
	return V4Window(wire.IPv4Addr(v4), from, to)
}
