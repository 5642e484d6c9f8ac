// Package services implements the application services running on
// simulated periphery devices — the 8 services of the paper's Table VI
// (DNS, NTP, FTP, SSH, TELNET, HTTP/80, TLS/443, HTTP/8080) — and the
// device stack that exposes them over the simulated network. The paper
// measures these as "unintended exposed services": home-router daemons
// reachable over global IPv6 because nothing filters them.
package services

import (
	"bytes"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/dnswire"
	"repro/internal/minitcp"
	"repro/internal/ntpwire"
	"repro/internal/tlswire"
	"repro/internal/wire"
)

// ID identifies one of the measured services.
type ID int

// The eight probed services, in the paper's table order.
const (
	SvcDNS ID = iota + 1
	SvcNTP
	SvcFTP
	SvcSSH
	SvcTelnet
	SvcHTTP80
	SvcTLS
	SvcHTTP8080
)

// All lists every service in table order.
var All = []ID{SvcDNS, SvcNTP, SvcFTP, SvcSSH, SvcTelnet, SvcHTTP80, SvcTLS, SvcHTTP8080}

// Port returns the service's transport port.
func (s ID) Port() uint16 {
	switch s {
	case SvcDNS:
		return 53
	case SvcNTP:
		return 123
	case SvcFTP:
		return 21
	case SvcSSH:
		return 22
	case SvcTelnet:
		return 23
	case SvcHTTP80:
		return 80
	case SvcTLS:
		return 443
	case SvcHTTP8080:
		return 8080
	}
	return 0
}

// IsUDP reports whether the service runs over UDP.
func (s ID) IsUDP() bool { return s == SvcDNS || s == SvcNTP }

// String returns the paper's label, e.g. "DNS-53".
func (s ID) String() string {
	switch s {
	case SvcDNS:
		return "DNS-53"
	case SvcNTP:
		return "NTP-123"
	case SvcFTP:
		return "FTP-21"
	case SvcSSH:
		return "SSH-22"
	case SvcTelnet:
		return "TELNET-23"
	case SvcHTTP80:
		return "HTTP-80"
	case SvcTLS:
		return "TLS-443"
	case SvcHTTP8080:
		return "HTTP-8080"
	}
	return fmt.Sprintf("Service(%d)", int(s))
}

// Config describes a device's exposed services: a vendor name and the
// software (with version) behind each enabled service.
type Config struct {
	Vendor   string
	Software map[ID]string
}

// UDPService handles one UDP request datagram.
type UDPService interface {
	// Handle returns the response payload, or nil for silence. The
	// payload may live in a buffer the service reuses: it is valid until
	// the next call.
	Handle(req []byte) []byte
}

// Stack is a periphery device's transport/application stack. It
// implements netsim.LocalStack: the device node answers echo itself and
// hands its TCP and UDP packets here, parsed.
type Stack struct {
	cfg Config
	tcp *minitcp.Server
	udp map[uint16]UDPService
}

// NewStack assembles the stack for cfg. The seed keys the TCP cookies.
func NewStack(cfg Config, seed []byte) *Stack {
	s := &Stack{cfg: cfg, tcp: minitcp.NewServer(seed), udp: make(map[uint16]UDPService)}
	for id, sw := range cfg.Software {
		switch id {
		case SvcDNS:
			s.udp[53] = &DNSForwarder{Software: sw}
		case SvcNTP:
			s.udp[123] = &NTPService{}
		case SvcFTP:
			s.tcp.Register(21, &FTPService{Software: sw})
		case SvcSSH:
			s.tcp.Register(22, &SSHService{Software: sw})
		case SvcTelnet:
			s.tcp.Register(23, &TelnetService{Vendor: cfg.Vendor, DeviceName: sw})
		case SvcHTTP80:
			s.tcp.Register(80, &HTTPService{Server: sw, Vendor: cfg.Vendor, LoginPage: true})
		case SvcTLS:
			s.tcp.Register(443, &TLSService{Vendor: cfg.Vendor})
		case SvcHTTP8080:
			s.tcp.Register(8080, &HTTPService{Server: sw, Vendor: cfg.Vendor})
		}
	}
	return s
}

// Enabled reports whether the given service is configured.
func (s *Stack) Enabled(id ID) bool {
	_, ok := s.cfg.Software[id]
	return ok
}

// HandleLocal implements netsim.LocalStack: UDP services (port
// unreachable for a closed port) and TCP through the embedded mini-TCP
// server, each answered with at most one packet built into buf.
func (s *Stack) HandleLocal(buf []byte, sum *wire.Summary, pkt []byte) []byte {
	self, peer := sum.IP.Dst, sum.IP.Src
	switch {
	case sum.UDP != nil:
		svc, ok := s.udp[sum.UDP.DstPort]
		if !ok {
			// RFC 4443: port unreachable. The builders return nil with
			// their error.
			out, _ := wire.AppendDestUnreach(buf, self, peer, 64, wire.UnreachPort, pkt)
			return out
		}
		resp := svc.Handle(sum.Payload)
		if resp == nil {
			return nil
		}
		out, _ := wire.AppendUDP(buf, self, peer, 64, sum.UDP.DstPort, sum.UDP.SrcPort, resp)
		return out
	case sum.TCP != nil:
		return s.tcp.HandleSegment(buf, self, peer, *sum.TCP, sum.Payload)
	}
	return nil
}

// DNSForwarder models the dnsmasq-style forwarder on home routers: it
// "resolves" A/AAAA queries (synthetically), answers version.bind, and
// sets RA — which is exactly what makes it an open resolver when exposed.
// It reads each query in place and answers into a buffer it reuses, so
// it is not safe for concurrent use; a device's stack runs under its
// engine's lock.
type DNSForwarder struct {
	Software string // e.g. "dnsmasq-2.45"

	// txt is the version.bind answer's rdata, rendered on first use;
	// txtOK is false when Software does not fit one TXT string.
	txt          []byte
	txtDone      bool
	txtOK        bool
	name, answer []byte // scratch: a decoded question name, the response
}

var _ UDPService = (*DNSForwarder)(nil)

// The synthetic upstream answers: the forwarder "recurses" and the
// simulation answers with deterministic addresses.
var (
	dnsAnswerA    = []byte{93, 184, 216, 34}
	dnsAnswerAAAA = []byte{0x26, 0x06, 0x28, 0x00, 0x02, 0x20, 0, 1, 0x02, 0x48, 0x18, 0x93, 0x25, 0xc8, 0x19, 0x46}
	versionBind   = []byte("version.bind")
)

// Handle implements UDPService. The response is the query's ID and
// every question, re-encoded uncompressed as dnswire.Message.Marshal
// writes them, plus one answer to the first question: the version TXT
// for version.bind (CH), the synthetic address for A or AAAA (IN), else
// no answer and NOTIMP. Anything dnswire.Parse rejects, a response, or
// a query with no question gets silence. A warm query allocates
// nothing; the response is valid until the next call.
func (d *DNSForwarder) Handle(req []byte) []byte {
	if !dnswire.Check(req) || req[2]&(dnswire.FlagQR>>8) != 0 {
		return nil
	}
	qd := int(req[4])<<8 | int(req[5])
	if qd == 0 {
		return nil
	}
	out := append(d.answer[:0], req[0], req[1], 0, 0, req[4], req[5], 0, 0, 0, 0, 0, 0)
	var (
		nameAt, nameEnd int // the first question's encoded name in out
		qtype, qclass   uint16
		version         bool
	)
	off := 12
	for i := 0; i < qd; i++ {
		name, next, _ := dnswire.AppendParsedName(d.name[:0], req, off) // Check accepted it
		d.name = name
		at := len(out)
		var err error
		if out, err = dnswire.AppendName(out, name); err != nil {
			return nil
		}
		if i == 0 {
			nameAt, nameEnd = at, len(out)
			qtype = uint16(req[next])<<8 | uint16(req[next+1])
			qclass = uint16(req[next+2])<<8 | uint16(req[next+3])
			version = bytes.EqualFold(name, versionBind)
		}
		out = append(out, req[next:next+4]...)
		off = next + 4
	}
	flags := uint16(dnswire.FlagQR | dnswire.FlagRA | dnswire.FlagRD)
	var data []byte
	var ttl uint32
	switch {
	case qclass == dnswire.ClassCH && qtype == dnswire.TypeTXT && version:
		txt, ok := d.versionTXT()
		if !ok {
			return nil
		}
		data = txt
	case qclass == dnswire.ClassIN && qtype == dnswire.TypeA:
		data, ttl = dnsAnswerA, 300
	case qclass == dnswire.ClassIN && qtype == dnswire.TypeAAAA:
		data, ttl = dnsAnswerAAAA, 300
	default:
		flags |= dnswire.RcodeNotImp
	}
	out[2], out[3] = byte(flags>>8), byte(flags)
	if data != nil {
		out[7] = 1
		out = append(out, out[nameAt:nameEnd]...)
		out = append(out, byte(qtype>>8), byte(qtype), byte(qclass>>8), byte(qclass),
			byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl),
			byte(len(data)>>8), byte(len(data)))
		out = append(out, data...)
	}
	d.answer = out
	return out
}

// versionTXT returns the version.bind rdata, rendering it once.
func (d *DNSForwarder) versionTXT() ([]byte, bool) {
	if !d.txtDone {
		d.txtDone = true
		txt, err := dnswire.TXTData(d.Software)
		d.txt, d.txtOK = txt, err == nil
	}
	return d.txt, d.txtOK
}

// NTPService answers NTPv4 mode-3 queries with a mode-4 reply.
type NTPService struct{}

var _ UDPService = (*NTPService)(nil)

// Handle implements UDPService.
func (NTPService) Handle(req []byte) []byte {
	q, err := ntpwire.Parse(req)
	if err != nil || q.Mode != ntpwire.ModeClient {
		return nil
	}
	// Deterministic timestamps: the measurement cares about
	// reachability and version, not clock quality.
	reply := ntpwire.NewServerReply(q, q.XmitTimestamp+1, q.XmitTimestamp+2)
	out, err := reply.Marshal()
	if err != nil {
		return nil
	}
	return out
}

// FTPService greets with the software banner, the "successful response"
// of Table VI.
type FTPService struct {
	Software string // e.g. "GNU Inetutils 1.4.1"
}

var _ minitcp.Service = (*FTPService)(nil)

// Banner implements minitcp.Service.
func (f *FTPService) Banner() []byte {
	return []byte("220 router FTP server (" + f.Software + ") ready.\r\n")
}

// Respond implements minitcp.Service.
func (f *FTPService) Respond(req []byte) []byte {
	cmd := strings.ToUpper(strings.TrimSpace(string(req)))
	switch {
	case strings.HasPrefix(cmd, "USER"):
		return []byte("331 Password required.\r\n")
	case strings.HasPrefix(cmd, "QUIT"):
		return []byte("221 Goodbye.\r\n")
	default:
		return []byte("502 Command not implemented.\r\n")
	}
}

// SSHService speaks the version-exchange half of SSH: the banner carries
// the software version, and any client identification is answered with a
// key-exchange-init-shaped blob (the "version, key" of Table VI).
type SSHService struct {
	Software string // e.g. "dropbear_0.46" or "OpenSSH_3.5"
}

var _ minitcp.Service = (*SSHService)(nil)

// Banner implements minitcp.Service.
func (s *SSHService) Banner() []byte {
	return []byte("SSH-2.0-" + s.Software + "\r\n")
}

// Respond implements minitcp.Service.
func (s *SSHService) Respond(req []byte) []byte {
	if !strings.HasPrefix(string(req), "SSH-") {
		return nil
	}
	// A stand-in SSH_MSG_KEXINIT packet: length, padding, type 20, then
	// an opaque host-key marker the prober can recognize.
	body := []byte("\x00\x00\x00\x2c\x0a\x14ssh-rsa-hostkey-fingerprint-synthetic")
	return body
}

// TelnetService negotiates nothing and prints a login prompt carrying the
// vendor banner.
type TelnetService struct {
	Vendor     string
	DeviceName string // e.g. "BCM96338 ADSL Router" or "OpenWrt"
}

var _ minitcp.Service = (*TelnetService)(nil)

// iac constructs the WILL ECHO / WILL SGA negotiation prologue real
// telnetds emit.
var telnetIAC = []byte{255, 251, 1, 255, 251, 3}

// Banner implements minitcp.Service.
func (t *TelnetService) Banner() []byte {
	b := append([]byte(nil), telnetIAC...)
	b = append(b, []byte(t.DeviceName+"\r\n"+t.Vendor+" login: ")...)
	return b
}

// Respond implements minitcp.Service.
func (t *TelnetService) Respond(req []byte) []byte {
	return []byte("Password: ")
}

// HTTPService serves the embedded management web application. With
// LoginPage set it renders the router admin login form (the pages the
// paper found reachable on 1.3M devices).
type HTTPService struct {
	Server    string // Server header, e.g. "MiniWeb HTTP Server", "Jetty 6.1.26"
	Vendor    string
	LoginPage bool

	page []byte // the 200 response, rendered on first use from the fields above
}

var _ minitcp.Service = (*HTTPService)(nil)

// badRequest answers anything but a GET or HEAD request line.
var badRequest = []byte("HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n")

// Banner implements minitcp.Service.
func (h *HTTPService) Banner() []byte { return nil }

// Respond implements minitcp.Service. The page is constant, so it is
// rendered once and returned read-only (minitcp copies it into the
// segment); a device's stack runs on one engine at a time.
func (h *HTTPService) Respond(req []byte) []byte {
	if !getOrHead(req) {
		return badRequest
	}
	if h.page == nil {
		h.page = h.render()
	}
	return h.page
}

// getOrHead reports whether req's request line (up to the first CRLF)
// has at least three fields, the first GET or HEAD. Fields are split at
// unicode.IsSpace runs, as strings.Fields splits; req is read in place.
func getOrHead(req []byte) bool {
	line, _, _ := bytes.Cut(req, []byte("\r\n"))
	var method []byte
	n := 0
	for i := 0; i < len(line) && n < 3; {
		r, size := utf8.DecodeRune(line[i:])
		if unicode.IsSpace(r) {
			i += size
			continue
		}
		start := i
		for i < len(line) {
			if r, size = utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
				break
			}
			i += size
		}
		if n == 0 {
			method = line[start:i]
		}
		n++
	}
	return n == 3 && (string(method) == "GET" || string(method) == "HEAD")
}

// render builds the 200 response from Server, Vendor and LoginPage.
func (h *HTTPService) render() []byte {
	var body string
	if h.LoginPage {
		body = "<html><head><title>" + h.Vendor + " Router - Login</title></head>" +
			"<body><form action=\"/login.cgi\" method=\"post\">" +
			"Username: <input name=\"user\"> Password: <input type=\"password\" name=\"pwd\">" +
			"<input type=\"submit\" value=\"Login\"></form>" +
			"<!-- vendor: " + h.Vendor + " --></body></html>"
	} else {
		body = "<html><head><title>" + h.Vendor + "</title></head>" +
			"<body><h1>It works</h1><!-- vendor: " + h.Vendor + " --></body></html>"
	}
	return fmt.Appendf(nil,
		"HTTP/1.1 200 OK\r\nServer: %s\r\nContent-Type: text/html\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		h.Server, len(body), body)
}

// TLSService answers a ClientHello with a ServerHello + a synthetic
// certificate naming the vendor.
type TLSService struct {
	Vendor string
}

var _ minitcp.Service = (*TLSService)(nil)

// Banner implements minitcp.Service.
func (t *TLSService) Banner() []byte { return nil }

// Respond implements minitcp.Service.
func (t *TLSService) Respond(req []byte) []byte {
	if _, err := tlswire.ParseClientHello(req); err != nil {
		return nil
	}
	cert := []byte("CN=" + t.Vendor + " router,O=" + t.Vendor)
	out, err := tlswire.MarshalServerFlight(tlswire.TLSECDHERSAWithAES128GCMSHA256, cert)
	if err != nil {
		return nil
	}
	return out
}
