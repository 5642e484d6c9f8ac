package services

import (
	"strings"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/ipv6"
	"repro/internal/minitcp"
	"repro/internal/netsim"
	"repro/internal/ntpwire"
	"repro/internal/tlswire"
	"repro/internal/wire"
)

var (
	devAddr    = ipv6.MustParseAddr("2001:db8:1234:5678::1")
	clientAddr = ipv6.MustParseAddr("2001:beef::5")
)

func fullConfig() Config {
	return Config{
		Vendor: "Youhua Tech",
		Software: map[ID]string{
			SvcDNS:      "dnsmasq-2.45",
			SvcNTP:      "ntpd-4",
			SvcFTP:      "GNU Inetutils 1.4.1",
			SvcSSH:      "dropbear_0.46",
			SvcTelnet:   "HG6543C",
			SvcHTTP80:   "MiniWeb HTTP Server",
			SvcTLS:      "embedded-tls",
			SvcHTTP8080: "Jetty 6.1.26",
		},
	}
}

func newStack(t *testing.T) *Stack {
	t.Helper()
	return NewStack(fullConfig(), []byte("seed"))
}

// handle delivers pkt to the stack as a device node does: parsed once,
// answered into a buffer (nil here, so the reply is allocated).
func handle(st *Stack, pkt []byte) []byte {
	var s wire.Summary
	if s.Parse(pkt) != nil {
		return nil
	}
	return st.HandleLocal(nil, &s, pkt)
}

// stackConn adapts a Stack to minitcp.Conn for client exchanges.
type stackConn struct {
	st  *Stack
	buf [][]byte
}

func (c *stackConn) Send(pkt []byte) error {
	if reply := handle(c.st, pkt); reply != nil {
		c.buf = append(c.buf, reply)
	}
	return nil
}

func (c *stackConn) Recv() [][]byte {
	out := c.buf
	c.buf = nil
	return out
}

func udpRoundTrip(t *testing.T, st *Stack, port uint16, payload []byte) []byte {
	t.Helper()
	pkt, err := wire.BuildUDP(clientAddr, devAddr, 64, 40000, port, payload)
	if err != nil {
		t.Fatal(err)
	}
	reply := handle(st, pkt)
	if reply == nil {
		return nil
	}
	s, err := wire.ParsePacket(reply)
	if err != nil {
		t.Fatal(err)
	}
	if s.UDP == nil {
		// Possibly an ICMP error; return the raw marker.
		return nil
	}
	return s.Payload
}

func TestServiceIDBasics(t *testing.T) {
	wantPorts := map[ID]uint16{
		SvcDNS: 53, SvcNTP: 123, SvcFTP: 21, SvcSSH: 22,
		SvcTelnet: 23, SvcHTTP80: 80, SvcTLS: 443, SvcHTTP8080: 8080,
	}
	for id, port := range wantPorts {
		if id.Port() != port {
			t.Errorf("%s Port() = %d", id, id.Port())
		}
	}
	if !SvcDNS.IsUDP() || !SvcNTP.IsUDP() || SvcFTP.IsUDP() {
		t.Error("IsUDP misclassifies")
	}
	if SvcDNS.String() != "DNS-53" || SvcHTTP8080.String() != "HTTP-8080" {
		t.Error("String labels wrong")
	}
	if len(All) != 8 {
		t.Errorf("All has %d services", len(All))
	}
}

// TestEchoReply: a device with services still answers pings — the node
// answers echo itself and hands only TCP and UDP to its stack.
func TestEchoReply(t *testing.T) {
	eng := netsim.New()
	scanner := netsim.NewEdge("scanner", clientAddr)
	cpe := netsim.NewCPE(netsim.CPEConfig{
		Name: "cpe", WANAddr: devAddr, WANPrefix: devAddr.Prefix64(), Stack: newStack(t),
	})
	eng.Connect(scanner.Iface(), cpe.WAN())
	pkt, err := wire.BuildEchoRequest(clientAddr, devAddr, 64, 7, 9, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(scanner.Iface(), pkt)
	replies := scanner.DrainInto(nil)
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	s, err := wire.ParsePacket(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.ICMP.Type != wire.ICMPEchoReply || s.IP.Src != devAddr {
		t.Errorf("reply = %+v", s)
	}
	if handle(newStack(t), pkt) != nil {
		t.Error("the stack answered an echo request the node answers")
	}
}

func TestDNSAQuery(t *testing.T) {
	st := newStack(t)
	q, err := dnswire.NewQuery(42, "example.com", dnswire.TypeA, dnswire.ClassIN).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp := udpRoundTrip(t, st, 53, q)
	if resp == nil {
		t.Fatal("no DNS response")
	}
	m, err := dnswire.Parse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 42 || m.Flags&dnswire.FlagQR == 0 || m.Flags&dnswire.FlagRA == 0 {
		t.Errorf("flags = %04x", m.Flags)
	}
	if len(m.Answers) != 1 || m.Answers[0].Type != dnswire.TypeA {
		t.Errorf("answers = %+v", m.Answers)
	}
}

func TestDNSVersionBind(t *testing.T) {
	st := newStack(t)
	q, err := dnswire.NewVersionBindQuery(1).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp := udpRoundTrip(t, st, 53, q)
	m, err := dnswire.Parse(resp)
	if err != nil {
		t.Fatal(err)
	}
	strs, err := dnswire.ParseTXTData(m.Answers[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(strs) != 1 || strs[0] != "dnsmasq-2.45" {
		t.Errorf("version.bind = %v", strs)
	}
}

func TestDNSIgnoresResponses(t *testing.T) {
	st := newStack(t)
	m := dnswire.NewQuery(1, "x.com", dnswire.TypeA, dnswire.ClassIN)
	m.Flags |= dnswire.FlagQR
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if resp := udpRoundTrip(t, st, 53, b); resp != nil {
		t.Error("forwarder answered a response packet")
	}
}

func TestNTPReply(t *testing.T) {
	st := newStack(t)
	q, err := ntpwire.NewClientQuery(0x123456789).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp := udpRoundTrip(t, st, 123, q)
	if resp == nil {
		t.Fatal("no NTP response")
	}
	p, err := ntpwire.Parse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ntpwire.ModeServer || p.OrigTimestamp != 0x123456789 {
		t.Errorf("reply = %+v", p)
	}
}

func TestClosedUDPPortUnreachable(t *testing.T) {
	st := newStack(t)
	pkt, err := wire.BuildUDP(clientAddr, devAddr, 64, 40000, 9999, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	reply := handle(st, pkt)
	if reply == nil {
		t.Fatal("no reply")
	}
	s, err := wire.ParsePacket(reply)
	if err != nil {
		t.Fatal(err)
	}
	if s.ICMP == nil || s.ICMP.Type != wire.ICMPDestUnreach || s.ICMP.Code != wire.UnreachPort {
		t.Errorf("reply = %+v", s)
	}
}

func TestFTPBannerAndUser(t *testing.T) {
	st := newStack(t)
	c := &stackConn{st: st}
	res, err := new(minitcp.Client).Exchange(c, clientAddr, devAddr, 40000, 21, []byte("USER anonymous\r\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Banner), "GNU Inetutils 1.4.1") {
		t.Errorf("banner = %q", res.Banner)
	}
	if !strings.HasPrefix(string(res.Data), "331") {
		t.Errorf("data = %q", res.Data)
	}
}

func TestSSHVersionExchange(t *testing.T) {
	st := newStack(t)
	c := &stackConn{st: st}
	res, err := new(minitcp.Client).Exchange(c, clientAddr, devAddr, 40001, 22, []byte("SSH-2.0-probe\r\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(res.Banner), "SSH-2.0-dropbear_0.46") {
		t.Errorf("banner = %q", res.Banner)
	}
	if !strings.Contains(string(res.Data), "hostkey") {
		t.Errorf("data = %q", res.Data)
	}
}

func TestTelnetLoginPrompt(t *testing.T) {
	st := newStack(t)
	c := &stackConn{st: st}
	res, err := new(minitcp.Client).Exchange(c, clientAddr, devAddr, 40002, 23, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Banner), "login:") || !strings.Contains(string(res.Banner), "Youhua Tech") {
		t.Errorf("banner = %q", res.Banner)
	}
	if res.Banner[0] != 255 {
		t.Error("missing IAC prologue")
	}
}

func TestHTTPLoginPage(t *testing.T) {
	st := newStack(t)
	c := &stackConn{st: st}
	res, err := new(minitcp.Client).Exchange(c, clientAddr, devAddr, 40003, 80,
		[]byte("GET / HTTP/1.1\r\nHost: router\r\n\r\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	body := string(res.Data)
	if !strings.Contains(body, "Server: MiniWeb HTTP Server") {
		t.Errorf("missing server header: %q", body)
	}
	if !strings.Contains(body, "Login") || !strings.Contains(body, "password") {
		t.Errorf("not a login page: %q", body)
	}
}

func TestHTTP8080NoLogin(t *testing.T) {
	st := newStack(t)
	c := &stackConn{st: st}
	res, err := new(minitcp.Client).Exchange(c, clientAddr, devAddr, 40004, 8080,
		[]byte("GET / HTTP/1.1\r\n\r\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Data), "Server: Jetty 6.1.26") {
		t.Errorf("data = %q", res.Data)
	}
}

func TestHTTPBadRequest(t *testing.T) {
	st := newStack(t)
	c := &stackConn{st: st}
	res, err := new(minitcp.Client).Exchange(c, clientAddr, devAddr, 40005, 80, []byte("NONSENSE\r\n\r\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(res.Data), "HTTP/1.1 400") {
		t.Errorf("data = %q", res.Data)
	}
}

func TestTLSHandshake(t *testing.T) {
	st := newStack(t)
	c := &stackConn{st: st}
	hello, err := tlswire.MarshalClientHello(&tlswire.ClientHello{
		CipherSuites: []uint16{tlswire.TLSECDHERSAWithAES128GCMSHA256},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := new(minitcp.Client).Exchange(c, clientAddr, devAddr, 40006, 443, hello, 4)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := tlswire.ParseServerFlight(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(flight.Certificate), "Youhua Tech") {
		t.Errorf("cert = %q", flight.Certificate)
	}
}

func TestDisabledServicesClosed(t *testing.T) {
	st := NewStack(Config{Vendor: "Bare", Software: map[ID]string{SvcHTTP80: "httpd"}}, []byte("s"))
	if st.Enabled(SvcDNS) || !st.Enabled(SvcHTTP80) {
		t.Error("Enabled() wrong")
	}
	c := &stackConn{st: st}
	res, err := new(minitcp.Client).Exchange(c, clientAddr, devAddr, 40007, 22, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Open {
		t.Error("disabled SSH port open")
	}
}

func TestFTPCommandVariants(t *testing.T) {
	f := &FTPService{Software: "vsftpd 2.3.4"}
	if got := string(f.Respond([]byte("QUIT\r\n"))); !strings.HasPrefix(got, "221") {
		t.Errorf("QUIT -> %q", got)
	}
	if got := string(f.Respond([]byte("SYST\r\n"))); !strings.HasPrefix(got, "502") {
		t.Errorf("SYST -> %q", got)
	}
}

func TestSSHIgnoresNonSSHRequest(t *testing.T) {
	s := &SSHService{Software: "dropbear_0.46"}
	if s.Respond([]byte("GET / HTTP/1.1")) != nil {
		t.Error("SSH answered an HTTP request")
	}
}

func TestTelnetRespondPassword(t *testing.T) {
	tl := &TelnetService{Vendor: "V", DeviceName: "D"}
	if got := string(tl.Respond([]byte("admin\r\n"))); got != "Password: " {
		t.Errorf("Respond = %q", got)
	}
}

func TestTLSIgnoresGarbage(t *testing.T) {
	ts := &TLSService{Vendor: "V"}
	if ts.Respond([]byte("not a client hello")) != nil {
		t.Error("TLS answered garbage")
	}
}

func TestHTTPHeadRequest(t *testing.T) {
	h := &HTTPService{Server: "micro_httpd", Vendor: "V"}
	resp := string(h.Respond([]byte("HEAD / HTTP/1.1\r\n\r\n")))
	if !strings.HasPrefix(resp, "HTTP/1.1 200") {
		t.Errorf("HEAD -> %q", resp)
	}
}

func TestServiceIDUnknownString(t *testing.T) {
	if got := ID(42).String(); got != "Service(42)" {
		t.Errorf("unknown = %q", got)
	}
	if ID(42).Port() != 0 {
		t.Error("unknown port != 0")
	}
}

func TestDNSUnsupportedQueryType(t *testing.T) {
	st := newStack(t)
	q, err := dnswire.NewQuery(5, "x.example", dnswire.TypePTR, dnswire.ClassIN).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp := udpRoundTrip(t, st, 53, q)
	m, err := dnswire.Parse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode() != dnswire.RcodeNotImp {
		t.Errorf("rcode = %d", m.Rcode())
	}
}

func TestDNSAAAAQuery(t *testing.T) {
	st := newStack(t)
	q, err := dnswire.NewQuery(6, "v6.example", dnswire.TypeAAAA, dnswire.ClassIN).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp := udpRoundTrip(t, st, 53, q)
	m, err := dnswire.Parse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Type != dnswire.TypeAAAA || len(m.Answers[0].Data) != 16 {
		t.Errorf("answers = %+v", m.Answers)
	}
}

// oldGetOrHead is the request-line rule HTTPService.Respond applied
// through a string conversion and strings.Fields, kept as the reference
// for the in-place getOrHead.
func oldGetOrHead(req []byte) bool {
	line, _, _ := strings.Cut(string(req), "\r\n")
	fields := strings.Fields(line)
	return len(fields) >= 3 && (fields[0] == "GET" || fields[0] == "HEAD")
}

var requestLines = []string{
	"GET / HTTP/1.1\r\n\r\n",
	"HEAD / HTTP/1.1\r\n",
	"GET / HTTP/1.1",
	"  GET\t/  HTTP/1.0 extra\r\nHost: x\r\n",
	"GET /\r\nHTTP/1.1\r\n",
	"GET / \r\n",
	"POST / HTTP/1.1\r\n",
	"get / HTTP/1.1\r\n",
	"GETS / HTTP/1.1\r\n",
	"GET\u00a0/\u2003HTTP/1.1\r\n", // no-break and em spaces split fields
	"GET\u0085/\u3000HTTP/1.1",     // NEL and ideographic space
	"GET\v/\fHTTP/1.1\r\n",
	"GET\xc2/ HTTP/1.1",      // a truncated rune is no space
	"\xa0GET / HTTP/1.1\r\n", // nor is a lone continuation byte
	"GET / HTTP/1.1\r",
	"\r\nGET / HTTP/1.1\r\n",
	"",
	"HEAD",
}

// TestRequestLineMatchesFields holds getOrHead to the old rule, unicode
// whitespace and invalid UTF-8 included.
func TestRequestLineMatchesFields(t *testing.T) {
	for _, req := range requestLines {
		if got, want := getOrHead([]byte(req)), oldGetOrHead([]byte(req)); got != want {
			t.Errorf("getOrHead(%q) = %v, strings.Fields rule %v", req, got, want)
		}
	}
}

func FuzzRequestLine(f *testing.F) {
	for _, req := range requestLines {
		f.Add([]byte(req))
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		if got, want := getOrHead(req), oldGetOrHead(req); got != want {
			t.Errorf("getOrHead(%q) = %v, strings.Fields rule %v", req, got, want)
		}
	})
}

// TestHTTPRespondAllocFree: answering a request, good or bad, reads it
// in place and returns the rendered page or the constant 400.
func TestHTTPRespondAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	h := &HTTPService{Server: "micro_httpd", Vendor: "V"}
	get, post := []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), []byte("POST / HTTP/1.1\r\n\r\n")
	h.Respond(get) // renders the page
	if n := testing.AllocsPerRun(100, func() {
		h.Respond(get)
		h.Respond(post)
	}); n != 0 {
		t.Errorf("Respond allocates %.1f times per request pair, want 0", n)
	}
}
