package xmap

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/dnswire"
	"repro/internal/ipv6"
	"repro/internal/ntpwire"
	"repro/internal/wire"
)

// ResponseKind classifies what came back for a probe.
type ResponseKind int

// Response kinds.
const (
	KindEchoReply ResponseKind = iota + 1
	KindDestUnreach
	KindTimeExceeded
	KindTCPSynAck
	KindTCPRst
	KindUDPData
)

// String names the kind.
func (k ResponseKind) String() string {
	switch k {
	case KindEchoReply:
		return "echo-reply"
	case KindDestUnreach:
		return "dest-unreach"
	case KindTimeExceeded:
		return "time-exceeded"
	case KindTCPSynAck:
		return "tcp-synack"
	case KindTCPRst:
		return "tcp-rst"
	case KindUDPData:
		return "udp-data"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Response is one validated scan response.
type Response struct {
	// Responder is the address that answered — for unreachable errors,
	// the periphery's own (WAN/UE) address.
	Responder ipv6.Addr
	// ProbeDst is the address the probe was sent to.
	ProbeDst ipv6.Addr
	Kind     ResponseKind
	// Code is the ICMPv6 code for error kinds.
	Code uint8
	// Payload is the application payload for KindUDPData.
	Payload []byte
}

// SamePrefix64 reports whether responder and probe destination share a
// /64 — the "same"/"diff" split of the paper's Table II.
func (r Response) SamePrefix64() bool {
	return r.Responder.Prefix64() == r.ProbeDst.Prefix64()
}

// Validator derives the per-target stateless validation value, ZMap-style
// (an HMAC of the destination keyed by the scan seed).
type Validator func(dst ipv6.Addr) uint32

// ProbeModule builds probes and classifies responses; implementations
// mirror ZMap's probe modules.
type ProbeModule interface {
	// Name is the module identifier (e.g. "icmp6_echoscan").
	Name() string
	// AppendProbe builds the raw probe packet, into buf when the module
	// reuses buffers and buf's capacity suffices; a module may ignore buf
	// and build afresh. The scanner recycles probe buffers through it,
	// since a driver does not retain them past SendBatch.
	AppendProbe(buf []byte, src, dst ipv6.Addr, val uint32) ([]byte, error)
	// Classify inspects a received packet; ok=false if the packet is not
	// a validated response to this module's probes.
	Classify(sum *wire.Summary, validate Validator) (Response, bool)
}

// ICMPEchoProbe is the icmp6_echoscan module — the paper's discovery
// workhorse. The validation value rides in the echo identifier and
// sequence fields. HopLimit and Data are configuration: set them before
// the scan starts and leave them fixed while probes are being built.
type ICMPEchoProbe struct {
	// HopLimit of outgoing probes (default 64). The routing-loop scan
	// uses elevated values per Section VI-B.
	HopLimit uint8
	// Data is the echo payload.
	Data []byte
	// StrictSource, when non-zero, hardens error-reply validation: the
	// embedded (quoted) invoking packet must carry this exact source
	// address — the scanner's own — or the reply is rejected. Closes
	// the forged-quote hole where a hostile responder fabricates an
	// error quoting a probe it never received verbatim (Config.Defend
	// sets it to the driver's source address).
	StrictSource ipv6.Addr

	// tmpl caches the probe image for the current (src, hop limit,
	// payload): only the destination, id/seq and checksum vary probe to
	// probe, so AppendProbe copies the image and patches those four
	// fields instead of re-marshaling the packet. Atomic because shards
	// share the module instance.
	tmpl atomic.Pointer[echoTmpl]
}

// echoTmpl is an immutable compiled probe image. sum carries the
// checksum partial over everything that does not vary per probe: the
// pseudo-header minus the destination, the type/code word, and the
// payload (the checksum, id and seq fields count as zero).
type echoTmpl struct {
	src     ipv6.Addr
	hop     uint8
	dataLen int
	pkt     []byte
	sum     uint64
}

var _ RawProbeModule = (*ICMPEchoProbe)(nil)

// Name implements ProbeModule.
func (p *ICMPEchoProbe) Name() string { return "icmp6_echoscan" }

func (p *ICMPEchoProbe) hopLimit() uint8 {
	if p.HopLimit == 0 {
		return 64
	}
	return p.HopLimit
}

// AppendProbe implements ProbeModule, patching the cached probe image
// into buf.
func (p *ICMPEchoProbe) AppendProbe(buf []byte, src, dst ipv6.Addr, val uint32) ([]byte, error) {
	t := p.tmpl.Load()
	if t == nil || t.src != src || t.hop != p.hopLimit() || t.dataLen != len(p.Data) {
		// Template fields that vary per probe are patched below, so the
		// placeholder destination/id/seq baked in here never escape.
		pkt, err := wire.BuildEchoRequest(src, ipv6.Addr{}, p.hopLimit(), 0, 0, p.Data)
		if err != nil {
			return nil, err
		}
		t = &echoTmpl{
			src:     src,
			hop:     p.hopLimit(),
			dataLen: len(p.Data),
			pkt:     pkt,
			sum: wire.PseudoSum(src, ipv6.Addr{}, wire.ProtoICMPv6, 8+len(p.Data)) +
				uint64(wire.ICMPEchoRequest)<<8 + wire.SumWords(p.Data),
		}
		p.tmpl.Store(t)
	}
	n := len(t.pkt)
	var out []byte
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]byte, n)
	}
	copy(out, t.pkt)
	db := dst.Bytes()
	copy(out[24:40], db[:])
	id, seq := uint16(val>>16), uint16(val)
	binary.BigEndian.PutUint16(out[wire.HeaderLen+4:wire.HeaderLen+6], id)
	binary.BigEndian.PutUint16(out[wire.HeaderLen+6:wire.HeaderLen+8], seq)
	cs := wire.FoldSum(t.sum + wire.SumWords(out[24:40]) + uint64(id) + uint64(seq))
	binary.BigEndian.PutUint16(out[wire.HeaderLen+2:wire.HeaderLen+4], cs)
	return out, nil
}

// Classify implements ProbeModule.
func (p *ICMPEchoProbe) Classify(sum *wire.Summary, validate Validator) (Response, bool) {
	if sum.ICMP == nil {
		return Response{}, false
	}
	switch sum.ICMP.Type {
	case wire.ICMPEchoReply:
		e, err := wire.ParseEcho(sum.ICMP.Body)
		if err != nil {
			return Response{}, false
		}
		// The responder is the probed address itself.
		val := validate(sum.IP.Src)
		if e.ID != uint16(val>>16) || e.Seq != uint16(val) {
			return Response{}, false
		}
		return Response{Responder: sum.IP.Src, ProbeDst: sum.IP.Src, Kind: KindEchoReply}, true

	case wire.ICMPDestUnreach, wire.ICMPTimeExceeded:
		inv, err := wire.ParseInvoking(sum.ICMP.Body)
		if err != nil || inv.IP.NextHeader != wire.ProtoICMPv6 {
			return Response{}, false
		}
		if p.StrictSource != (ipv6.Addr{}) && inv.IP.Src != p.StrictSource {
			return Response{}, false
		}
		val := validate(inv.IP.Dst)
		if inv.EchoID != uint16(val>>16) || inv.EchoSeq != uint16(val) {
			return Response{}, false
		}
		kind := KindDestUnreach
		if sum.ICMP.Type == wire.ICMPTimeExceeded {
			kind = KindTimeExceeded
		}
		return Response{
			Responder: sum.IP.Src,
			ProbeDst:  inv.IP.Dst,
			Kind:      kind,
			Code:      sum.ICMP.Code,
		}, true
	}
	return Response{}, false
}

// ClassifyRaw implements RawProbeModule: the scanner's receive path. It
// accepts exactly what Summary.Parse followed by Classify accepts
// (FuzzClassifyRawParity pins the two equal) in one walk over the reply:
// no header structs are built, the quote is read in place, and a single
// SumWords over src|dst and the ICMPv6 message — contiguous from byte 8
// — covers the checksum.
func (p *ICMPEchoProbe) ClassifyRaw(raw []byte, validate Validator) (Response, bool) {
	if len(raw) < wire.HeaderLen || raw[0]>>4 != 6 || raw[6] != wire.ProtoICMPv6 {
		return Response{}, false
	}
	plen := int(binary.BigEndian.Uint16(raw[4:6]))
	if plen < 8 || len(raw)-wire.HeaderLen < plen {
		return Response{}, false
	}
	end := wire.HeaderLen + plen
	if wire.FoldSum(wire.SumWords(raw[8:end])+uint64(plen)+wire.ProtoICMPv6) != 0 {
		return Response{}, false
	}
	m := raw[wire.HeaderLen:end]
	src := ipv6.AddrFromBytes(raw[8:24])
	switch m[0] {
	case wire.ICMPEchoReply:
		// The responder is the probed address itself.
		if binary.BigEndian.Uint32(m[4:8]) != validate(src) {
			return Response{}, false
		}
		return Response{Responder: src, ProbeDst: src, Kind: KindEchoReply}, true

	case wire.ICMPDestUnreach, wire.ICMPTimeExceeded:
		inv := m[8:] // past type, code, checksum and the 4 unused bytes
		if len(inv) < wire.HeaderLen || inv[0]>>4 != 6 || inv[6] != wire.ProtoICMPv6 {
			return Response{}, false
		}
		if p.StrictSource != (ipv6.Addr{}) && ipv6.AddrFromBytes(inv[8:24]) != p.StrictSource {
			return Response{}, false
		}
		// Only a quoted echo carries id/seq; any other quote reads as zero.
		var idSeq uint32
		if l4 := inv[wire.HeaderLen:]; len(l4) >= 8 && (l4[0] == wire.ICMPEchoRequest || l4[0] == wire.ICMPEchoReply) {
			idSeq = binary.BigEndian.Uint32(l4[4:8])
		}
		probeDst := ipv6.AddrFromBytes(inv[24:40])
		if idSeq != validate(probeDst) {
			return Response{}, false
		}
		kind := KindDestUnreach
		if m[0] == wire.ICMPTimeExceeded {
			kind = KindTimeExceeded
		}
		return Response{Responder: src, ProbeDst: probeDst, Kind: kind, Code: m[1]}, true
	}
	return Response{}, false
}

// TCPSynProbe is the tcp_synscan module: a SYN whose sequence number is
// the validation value.
type TCPSynProbe struct {
	Port     uint16
	HopLimit uint8
}

var _ ProbeModule = (*TCPSynProbe)(nil)

// Name implements ProbeModule.
func (p *TCPSynProbe) Name() string { return "tcp_synscan" }

func (p *TCPSynProbe) hopLimit() uint8 {
	if p.HopLimit == 0 {
		return 64
	}
	return p.HopLimit
}

// srcPortBase spreads flows while keeping the port derivable.
const srcPortBase = 32768

// AppendProbe implements ProbeModule; it builds afresh and ignores buf.
func (p *TCPSynProbe) AppendProbe(_ []byte, src, dst ipv6.Addr, val uint32) ([]byte, error) {
	t := wire.TCPHeader{
		SrcPort: srcPortBase + uint16(val%8192),
		DstPort: p.Port,
		Seq:     val,
		Flags:   wire.TCPSyn,
		Window:  65535,
	}
	return wire.BuildTCP(src, dst, p.hopLimit(), t, nil)
}

// Classify implements ProbeModule.
func (p *TCPSynProbe) Classify(sum *wire.Summary, validate Validator) (Response, bool) {
	switch {
	case sum.TCP != nil:
		if sum.TCP.SrcPort != p.Port {
			return Response{}, false
		}
		val := validate(sum.IP.Src)
		if sum.TCP.DstPort != srcPortBase+uint16(val%8192) {
			return Response{}, false
		}
		if sum.TCP.Ack != val+1 {
			return Response{}, false
		}
		kind := KindTCPRst
		if sum.TCP.Flags&wire.TCPSyn != 0 && sum.TCP.Flags&wire.TCPAck != 0 {
			kind = KindTCPSynAck
		}
		return Response{Responder: sum.IP.Src, ProbeDst: sum.IP.Src, Kind: kind}, true

	case sum.ICMP != nil && (sum.ICMP.Type == wire.ICMPDestUnreach || sum.ICMP.Type == wire.ICMPTimeExceeded):
		inv, err := wire.ParseInvoking(sum.ICMP.Body)
		if err != nil || inv.IP.NextHeader != wire.ProtoTCP {
			return Response{}, false
		}
		val := validate(inv.IP.Dst)
		if inv.SrcPort != srcPortBase+uint16(val%8192) || inv.DstPort != p.Port {
			return Response{}, false
		}
		kind := KindDestUnreach
		if sum.ICMP.Type == wire.ICMPTimeExceeded {
			kind = KindTimeExceeded
		}
		return Response{Responder: sum.IP.Src, ProbeDst: inv.IP.Dst, Kind: kind, Code: sum.ICMP.Code}, true
	}
	return Response{}, false
}

// UDPProbe is the udpscan module with a pluggable payload builder; the
// DNS and NTP probe constructors below specialize it. The validation
// value selects the source port.
type UDPProbe struct {
	ModName  string
	Port     uint16
	HopLimit uint8
	// Payload builds the datagram body for a validation value.
	Payload func(val uint32) ([]byte, error)
	// ValidPayload checks an application response (already port-matched).
	ValidPayload func(val uint32, body []byte) bool
}

var _ ProbeModule = (*UDPProbe)(nil)

// Name implements ProbeModule.
func (p *UDPProbe) Name() string { return p.ModName }

func (p *UDPProbe) hopLimit() uint8 {
	if p.HopLimit == 0 {
		return 64
	}
	return p.HopLimit
}

func (p *UDPProbe) srcPort(val uint32) uint16 { return srcPortBase + uint16(val%8192) }

// AppendProbe implements ProbeModule; it builds afresh and ignores buf.
func (p *UDPProbe) AppendProbe(_ []byte, src, dst ipv6.Addr, val uint32) ([]byte, error) {
	body, err := p.Payload(val)
	if err != nil {
		return nil, err
	}
	return wire.BuildUDP(src, dst, p.hopLimit(), p.srcPort(val), p.Port, body)
}

// Classify implements ProbeModule.
func (p *UDPProbe) Classify(sum *wire.Summary, validate Validator) (Response, bool) {
	switch {
	case sum.UDP != nil:
		if sum.UDP.SrcPort != p.Port {
			return Response{}, false
		}
		val := validate(sum.IP.Src)
		if sum.UDP.DstPort != p.srcPort(val) {
			return Response{}, false
		}
		if p.ValidPayload != nil && !p.ValidPayload(val, sum.Payload) {
			return Response{}, false
		}
		return Response{Responder: sum.IP.Src, ProbeDst: sum.IP.Src, Kind: KindUDPData, Payload: sum.Payload}, true

	case sum.ICMP != nil && (sum.ICMP.Type == wire.ICMPDestUnreach || sum.ICMP.Type == wire.ICMPTimeExceeded):
		inv, err := wire.ParseInvoking(sum.ICMP.Body)
		if err != nil || inv.IP.NextHeader != wire.ProtoUDP {
			return Response{}, false
		}
		val := validate(inv.IP.Dst)
		if inv.SrcPort != p.srcPort(val) || inv.DstPort != p.Port {
			return Response{}, false
		}
		kind := KindDestUnreach
		if sum.ICMP.Type == wire.ICMPTimeExceeded {
			kind = KindTimeExceeded
		}
		return Response{Responder: sum.IP.Src, ProbeDst: inv.IP.Dst, Kind: kind, Code: sum.ICMP.Code}, true
	}
	return Response{}, false
}

// NewDNSProbe returns a udpscan module sending an A query ("A" query of
// Table VI); the query ID carries the low validation bits.
func NewDNSProbe(qname string) *UDPProbe {
	return &UDPProbe{
		ModName: "dnsscan",
		Port:    53,
		Payload: func(val uint32) ([]byte, error) {
			return dnswire.NewQuery(uint16(val), qname, dnswire.TypeA, dnswire.ClassIN).Marshal()
		},
		ValidPayload: func(val uint32, body []byte) bool {
			m, err := dnswire.Parse(body)
			return err == nil && m.ID == uint16(val) && m.Flags&dnswire.FlagQR != 0
		},
	}
}

// NewNTPProbe returns a udpscan module sending an NTP version query.
func NewNTPProbe() *UDPProbe {
	return &UDPProbe{
		ModName: "ntpscan",
		Port:    123,
		Payload: func(val uint32) ([]byte, error) {
			return ntpwire.NewClientQuery(uint64(val)<<32 | uint64(val)).Marshal()
		},
		ValidPayload: func(val uint32, body []byte) bool {
			pkt, err := ntpwire.Parse(body)
			return err == nil && pkt.Mode == ntpwire.ModeServer &&
				pkt.OrigTimestamp == uint64(val)<<32|uint64(val)
		},
	}
}
