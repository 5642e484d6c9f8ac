// Package zgrab implements the application-layer prober of Section V —
// the ZGrab2 analogue. For each discovered periphery it performs exactly
// the Table VI exchanges (one probe per service, never more than one
// service concurrently per target), collects banners, and extracts the
// software version and vendor evidence behind Tables VII/VIII and
// Figures 2/3.
package zgrab

import (
	"fmt"
	"strings"

	"repro/internal/dnswire"
	"repro/internal/ipv6"
	"repro/internal/minitcp"
	"repro/internal/ntpwire"
	"repro/internal/services"
	"repro/internal/tlswire"
	"repro/internal/wire"
	"repro/internal/xmap"
)

// ServiceResult is the outcome of probing one service on one device.
type ServiceResult struct {
	Service  services.ID
	Alive    bool
	Software string // extracted software/version string, if any
	Vendor   string // vendor evidence from pages/banners/certificates
	// LoginPage marks an HTTP management login form (Section V's
	// "web management pages accessible" finding).
	LoginPage bool
}

// DeviceResult aggregates one device's probes.
type DeviceResult struct {
	Addr    ipv6.Addr
	Results map[services.ID]ServiceResult
	// Vendor is the consensus application-level vendor (most frequent
	// non-empty evidence), or "".
	Vendor string
}

// AliveCount returns how many probed services answered.
func (d *DeviceResult) AliveCount() int {
	n := 0
	for _, r := range d.Results {
		if r.Alive {
			n++
		}
	}
	return n
}

// Prober drives service probes through a scan driver. It reuses its
// packet buffers, parse state and requests across probes. Not safe for
// concurrent use.
type Prober struct {
	drv      xmap.PacketDriver
	tcp      minitcp.Client
	nextPort uint16
	// maxRounds bounds each TCP exchange (lock-step drivers need few).
	maxRounds int

	// The constant requests, marshalled once.
	dnsQuery, versionQuery, ntpQuery, clientHello []byte

	udpBuf  []byte       // udpRoundTrip's send buffer
	sum     wire.Summary // udpRoundTrip's reply parse state
	httpReq []byte       // probeHTTP's request, rebuilt per device
}

// New creates a prober.
func New(drv xmap.PacketDriver) *Prober {
	return &Prober{
		drv: drv, nextPort: 33000, maxRounds: 4,
		dnsQuery:     must(dnswire.NewQuery(dnsQueryID, "connectivity.xmap.example", dnswire.TypeA, dnswire.ClassIN).Marshal()),
		versionQuery: must(dnswire.NewVersionBindQuery(versionQueryID).Marshal()),
		ntpQuery:     must(ntpwire.NewClientQuery(ntpXmit).Marshal()),
		clientHello: must(tlswire.MarshalClientHello(&tlswire.ClientHello{
			CipherSuites: []uint16{tlswire.TLSECDHERSAWithAES128GCMSHA256, tlswire.TLSRSAWithAES128CBCSHA},
		})),
	}
}

// The ids the DNS and NTP replies must echo.
const (
	dnsQueryID     = 0x1a2b
	versionQueryID = 0x1a2c
	ntpXmit        = 0x58aa_77cc_1122_3344
)

// must unwraps the marshalling of a constant request: its inputs are
// fixed, so only a bug makes it fail.
func must(b []byte, err error) []byte {
	if err != nil {
		panic("zgrab: marshalling a constant request: " + err.Error())
	}
	return b
}

// srcPort hands out distinct client ports so flows never collide.
func (p *Prober) srcPort() uint16 {
	p.nextPort++
	if p.nextPort < 33000 {
		p.nextPort = 33000
	}
	return p.nextPort
}

// ProbeDevice probes the given services (all eight when svcs is nil).
func (p *Prober) ProbeDevice(addr ipv6.Addr, svcs []services.ID) (*DeviceResult, error) {
	if svcs == nil {
		svcs = services.All
	}
	out := &DeviceResult{Addr: addr, Results: make(map[services.ID]ServiceResult, len(svcs))}
	vendorVotes := map[string]int{}
	for _, svc := range svcs {
		res, err := p.probeService(addr, svc)
		if err != nil {
			return nil, fmt.Errorf("zgrab: probing %s on %s: %w", svc, addr, err)
		}
		out.Results[svc] = res
		if res.Vendor != "" {
			vendorVotes[res.Vendor]++
		}
	}
	best := 0
	for v, n := range vendorVotes {
		if n > best || (n == best && v < out.Vendor) {
			out.Vendor, best = v, n
		}
	}
	return out, nil
}

// probeService performs one Table VI exchange.
func (p *Prober) probeService(addr ipv6.Addr, svc services.ID) (ServiceResult, error) {
	res := ServiceResult{Service: svc}
	switch svc {
	case services.SvcDNS:
		return p.probeDNS(addr)
	case services.SvcNTP:
		return p.probeNTP(addr)
	case services.SvcFTP:
		return p.probeBanner(addr, svc, nil, parseFTP)
	case services.SvcSSH:
		return p.probeBanner(addr, svc, []byte("SSH-2.0-XMapProbe\r\n"), parseSSH)
	case services.SvcTelnet:
		return p.probeBanner(addr, svc, nil, parseTelnet)
	case services.SvcHTTP80, services.SvcHTTP8080:
		return p.probeHTTP(addr, svc)
	case services.SvcTLS:
		return p.probeTLS(addr)
	}
	return res, fmt.Errorf("zgrab: unknown service %v", svc)
}

// udpRoundTrip sends one datagram and returns the matching reply
// payload. The payload aliases the reply packet, so it is valid only
// until the driver's next Recv.
func (p *Prober) udpRoundTrip(addr ipv6.Addr, dstPort uint16, payload []byte) ([]byte, error) {
	sp := p.srcPort()
	pkt, err := wire.AppendUDP(p.udpBuf, p.drv.SourceAddr(), addr, 64, sp, dstPort, payload)
	if err != nil {
		return nil, err
	}
	p.udpBuf = pkt
	if err := p.drv.Send(pkt); err != nil {
		return nil, err
	}
	sum := &p.sum
	for _, raw := range p.drv.Recv() {
		if sum.Parse(raw) != nil || sum.UDP == nil {
			continue
		}
		if sum.IP.Src != addr || sum.UDP.SrcPort != dstPort || sum.UDP.DstPort != sp {
			continue
		}
		return sum.Payload, nil
	}
	return nil, nil
}

// probeDNS asks for an A record, then for version.bind. Each reply is
// parsed before the next round trip's Recv recycles it.
func (p *Prober) probeDNS(addr ipv6.Addr) (ServiceResult, error) {
	res := ServiceResult{Service: services.SvcDNS}
	reply, err := p.udpRoundTrip(addr, 53, p.dnsQuery)
	if err != nil {
		return res, err
	}
	if reply == nil {
		return res, nil
	}
	m, err := dnswire.Parse(reply)
	if err != nil || m.ID != dnsQueryID || m.Flags&dnswire.FlagQR == 0 {
		return res, nil
	}
	res.Alive = true

	// Follow up with the version fingerprint.
	vreply, err := p.udpRoundTrip(addr, 53, p.versionQuery)
	if err != nil || vreply == nil {
		return res, err
	}
	vm, err := dnswire.Parse(vreply)
	if err != nil || len(vm.Answers) == 0 {
		return res, nil
	}
	strs, err := dnswire.ParseTXTData(vm.Answers[0].Data)
	if err == nil && len(strs) > 0 {
		res.Software = strs[0]
	}
	return res, nil
}

func (p *Prober) probeNTP(addr ipv6.Addr) (ServiceResult, error) {
	res := ServiceResult{Service: services.SvcNTP}
	reply, err := p.udpRoundTrip(addr, 123, p.ntpQuery)
	if err != nil {
		return res, err
	}
	if reply == nil {
		return res, nil
	}
	pkt, err := ntpwire.Parse(reply)
	if err != nil || pkt.Mode != ntpwire.ModeServer || pkt.OrigTimestamp != ntpXmit {
		return res, nil
	}
	res.Alive = true
	res.Software = fmt.Sprintf("NTPv%d", pkt.Version)
	return res, nil
}

// bannerParser extracts software and vendor evidence from a banner; ok
// is false when the banner is not the service's greeting.
type bannerParser func(banner []byte) (software, vendor string, ok bool)

func (p *Prober) probeBanner(addr ipv6.Addr, svc services.ID, req []byte, parse bannerParser) (ServiceResult, error) {
	res := ServiceResult{Service: svc}
	x, err := p.tcp.Exchange(p.drv, p.drv.SourceAddr(), addr, p.srcPort(), svc.Port(), req, p.maxRounds)
	if err != nil {
		return res, err
	}
	if !x.Open {
		return res, nil
	}
	if len(x.Banner) == 0 && len(x.Data) == 0 {
		// Open but mute: count as alive only for request-first probes
		// that got nothing back — the paper requires a valid response.
		return res, nil
	}
	res.Software, res.Vendor, res.Alive = parse(x.Banner)
	return res, nil
}

func parseFTP(banner []byte) (software, vendor string, ok bool) {
	line := strings.TrimSpace(string(banner))
	if !strings.HasPrefix(line, "220") {
		return "", "", false
	}
	if i := strings.IndexByte(line, '('); i >= 0 {
		if j := strings.IndexByte(line[i:], ')'); j > 0 {
			software = line[i+1 : i+j]
		}
	}
	return software, "", true
}

func parseSSH(banner []byte) (software, vendor string, ok bool) {
	line := strings.TrimSpace(string(banner))
	if !strings.HasPrefix(line, "SSH-") {
		return "", "", false
	}
	// The software field may be empty ("SSH-2.0-"): the greeting still
	// counts, with no version to report.
	if rest, ok := strings.CutPrefix(line, "SSH-2.0-"); ok {
		if f := strings.Fields(rest); len(f) > 0 {
			software = f[0]
		}
	}
	return software, "", true
}

func parseTelnet(banner []byte) (software, vendor string, ok bool) {
	text := stripTelnetIAC(banner)
	if !strings.Contains(text, "login:") && !strings.Contains(text, "Login") {
		return "", "", false
	}
	// "<device>\r\n<vendor> login: " — the token before "login:" names
	// the vendor.
	if i := strings.Index(text, " login:"); i > 0 {
		head := strings.TrimSpace(text[:i])
		if j := strings.LastIndexAny(head, "\r\n"); j >= 0 {
			head = strings.TrimSpace(head[j+1:])
		}
		vendor = head
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) > 0 {
		software = strings.TrimSpace(lines[0])
	}
	return software, vendor, true
}

// stripTelnetIAC removes IAC negotiation sequences.
func stripTelnetIAC(b []byte) string {
	var out []byte
	for i := 0; i < len(b); {
		if b[i] == 255 && i+2 < len(b) && b[i+1] >= 251 {
			i += 3
			continue
		}
		out = append(out, b[i])
		i++
	}
	return string(out)
}

func (p *Prober) probeHTTP(addr ipv6.Addr, svc services.ID) (ServiceResult, error) {
	res := ServiceResult{Service: svc}
	req := append(p.httpReq[:0], "GET / HTTP/1.1\r\nHost: ["...)
	req = addr.AppendTo(req)
	req = append(req, "]\r\nUser-Agent: XMap-research-scan\r\nConnection: close\r\n\r\n"...)
	p.httpReq = req
	x, err := p.tcp.Exchange(p.drv, p.drv.SourceAddr(), addr, p.srcPort(), svc.Port(), req, p.maxRounds)
	if err != nil {
		return res, err
	}
	if !x.Open || len(x.Data) == 0 {
		return res, nil
	}
	text := string(x.Data)
	if !strings.HasPrefix(text, "HTTP/") {
		return res, nil
	}
	res.Alive = true
	for _, line := range strings.Split(text, "\r\n") {
		if v, ok := strings.CutPrefix(line, "Server: "); ok {
			res.Software = v
		}
		if line == "" {
			break
		}
	}
	body := text
	if i := strings.Index(text, "\r\n\r\n"); i >= 0 {
		body = text[i+4:]
	}
	lower := strings.ToLower(body)
	res.LoginPage = strings.Contains(lower, "login") &&
		(strings.Contains(lower, "password") || strings.Contains(lower, "pwd"))
	if i := strings.Index(body, "vendor: "); i >= 0 {
		rest := body[i+len("vendor: "):]
		if j := strings.Index(rest, " -->"); j >= 0 {
			res.Vendor = rest[:j]
		}
	}
	return res, nil
}

func (p *Prober) probeTLS(addr ipv6.Addr) (ServiceResult, error) {
	res := ServiceResult{Service: services.SvcTLS}
	x, err := p.tcp.Exchange(p.drv, p.drv.SourceAddr(), addr, p.srcPort(), 443, p.clientHello, p.maxRounds)
	if err != nil {
		return res, err
	}
	if !x.Open || len(x.Data) == 0 {
		return res, nil
	}
	flight, err := tlswire.ParseServerFlight(x.Data)
	if err != nil {
		return res, nil
	}
	res.Alive = true
	res.Software = fmt.Sprintf("TLS cipher %04x", flight.Cipher)
	cert := string(flight.Certificate)
	if v, ok := cutBetween(cert, "O=", ","); ok {
		res.Vendor = v
	} else if v, ok := cutBetween(cert, "CN=", " router"); ok {
		res.Vendor = v
	}
	return res, nil
}

// cutBetween extracts the text between the first occurrence of start and
// the next occurrence of end (or end-of-string when end is absent).
func cutBetween(s, start, end string) (string, bool) {
	i := strings.Index(s, start)
	if i < 0 {
		return "", false
	}
	rest := s[i+len(start):]
	if j := strings.Index(rest, end); j >= 0 {
		return rest[:j], true
	}
	return rest, true
}
