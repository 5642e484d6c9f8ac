package xmap

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// v4Fixture: a provider /24 with a handful of NAT gateways on distinct
// public addresses.
type v4Fixture struct {
	eng     *netsim.Engine
	edge    *netsim.Edge
	drv     *SimDriver
	publics []wire.IPv4Addr
}

func buildV4Fixture(t *testing.T) *v4Fixture {
	t.Helper()
	f := &v4Fixture{eng: netsim.New()}
	scanV4 := wire.IPv4AddrFrom(198, 51, 100, 7)
	f.edge = netsim.NewEdge("scanner4", ipv6.V4Mapped(uint32(scanV4)))
	isp := netsim.NewV4Router("isp4")
	up := isp.AddIface4(wire.IPv4AddrFrom(198, 51, 100, 1), "isp:up")
	f.eng.Connect(f.edge.Iface(), up)
	isp.AddRoute4(scanV4, 32, up)

	for i := 0; i < 6; i++ {
		public := wire.IPv4AddrFrom(203, 0, 113, byte(10+i*7))
		nat := netsim.NewNATGateway("nat", public, []wire.IPv4Addr{wire.IPv4AddrFrom(192, 168, 1, 10)})
		down := isp.AddIface4(wire.IPv4AddrFrom(10, 0, 0, byte(2+i)), "isp:down")
		f.eng.Connect(down, nat.WAN())
		isp.AddRoute4(public, 32, down)
		f.publics = append(f.publics, public)
	}
	f.drv = NewSimDriver(f.eng, f.edge)
	return f
}

func TestV4WindowValidation(t *testing.T) {
	if _, err := V4Window(wire.IPv4AddrFrom(10, 0, 0, 0), 8, 8); err == nil {
		t.Error("degenerate window accepted")
	}
	if _, err := V4Window(wire.IPv4AddrFrom(10, 0, 0, 0), 8, 33); err == nil {
		t.Error("overlong window accepted")
	}
	w, err := V4Window(wire.IPv4AddrFrom(192, 168, 0, 0), 20, 25)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's own example: 192.168.0.0/20-25 has 32 sub-prefixes.
	if w.Width() != 5 {
		t.Errorf("width = %d", w.Width())
	}
}

// TestV4ScanFindsNATGateways scans 203.0.113.0/24 address by address
// (window /24-32): only the public NAT addresses answer — the IPv4
// world's entire visible periphery is one address per home (and brute
// force over the full space is what makes that feasible at all).
func TestV4ScanFindsNATGateways(t *testing.T) {
	f := buildV4Fixture(t)
	w, err := V4Window(wire.IPv4AddrFrom(203, 0, 113, 0), 24, 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Window: w, Probe: &ICMPEcho4Probe{}, Seed: []byte("v4")}, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint32]ResponseKind{}
	stats, err := s.Run(context.Background(), func(r Response) {
		v4, ok := r.Responder.AsV4()
		if !ok {
			t.Errorf("non-v4 responder %s", r.Responder)
			return
		}
		found[v4] = r.Kind
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 256 {
		t.Errorf("sent = %d", stats.Sent)
	}
	for _, pub := range f.publics {
		kind, ok := found[uint32(pub)]
		if !ok {
			t.Errorf("NAT gateway %s not found", pub)
			continue
		}
		if kind != KindEchoReply {
			t.Errorf("gateway %s found via %s", pub, kind)
		}
	}
	// Nothing from private space ever appears.
	for v4 := range found {
		if byte(v4>>24) == 192 {
			t.Errorf("private address leaked: %s", wire.IPv4Addr(v4))
		}
	}
}

// TestV4TargetForStaysMapped verifies the iterator emits v4-mapped
// addresses for v4 windows.
func TestV4TargetForStaysMapped(t *testing.T) {
	f := buildV4Fixture(t)
	w, err := V4Window(wire.IPv4AddrFrom(10, 0, 0, 0), 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Window: w, Probe: &ICMPEcho4Probe{}, Seed: []byte("v4t")}, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	it := 0
	cycleProbe := func() {
		target, err := s.TargetFor(uint128.From64(uint64(it)))
		if err != nil {
			t.Fatal(err)
		}
		v4, ok := target.AsV4()
		if !ok {
			t.Fatalf("target %s not v4-mapped", target)
		}
		if byte(v4>>24) != 10 {
			t.Fatalf("target %s outside 10/8", wire.IPv4Addr(v4))
		}
		it++
	}
	for i := 0; i < 100; i++ {
		cycleProbe()
	}
}

func TestICMPEcho4ProbeRejectsNonMapped(t *testing.T) {
	p := &ICMPEcho4Probe{}
	if _, err := p.AppendProbe(nil, ipv6.MustParseAddr("2001:db8::1"), ipv6.V4Mapped(1), 0); err == nil {
		t.Error("v6 source accepted")
	}
	if _, err := p.AppendProbe(nil, ipv6.V4Mapped(1), ipv6.MustParseAddr("2001:db8::1"), 0); err == nil {
		t.Error("v6 target accepted")
	}
}

func TestParseV4Window(t *testing.T) {
	w, err := ParseV4Window("192.168.0.0/20-25")
	if err != nil {
		t.Fatal(err)
	}
	if w.Width() != 5 {
		t.Errorf("width = %d", w.Width())
	}
	for _, bad := range []string{
		"192.168.0.0", "192.168.0.0/20", "192.168.0.0/25-20",
		"300.0.0.0/8-16", "1.2.3/8-16", "a.b.c.d/8-16",
	} {
		if _, err := ParseV4Window(bad); err == nil {
			t.Errorf("ParseV4Window(%q) accepted", bad)
		}
	}
}

// TestV4ParsersStrict holds ParseV4Window, ParseBlocklist and
// ipv6.ParseAddr's mixed notation to one dotted-quad grammar (decimal
// octets with no sign and no leading zero) and reads prefix lengths
// exactly: no sign, space, leading zero or trailing text.
func TestV4ParsersStrict(t *testing.T) {
	for _, tc := range []struct {
		window, block, addr string // each form under test; "" skips
		ok                  bool
	}{
		{"10.0.0.0/8-24", "10.0.0.0/8", "10.0.0.0", true},
		{"0.0.0.0/0-32", "0.0.0.0/0", "0.0.0.0", true},
		{"255.255.255.255/24-32", "255.255.255.255", "255.255.255.255", true},
		{"010.0.0.0/8-24", "010.0.0.0/8", "010.0.0.0", false},
		{"+10.0.0.0/8-24", "+10.0.0.0/8", "+10.0.0.0", false},
		{"1.2.3.04/24-32", "1.2.3.04", "1.2.3.04", false},
		{"-0.0.0.0/8-24", "-0.0.0.0", "-0.0.0.0", false},
		{"1.2.3. 4/24-32", "1.2.3. 4", "1.2.3. 4", false},
		{"10.0.0.0/+8-24", "10.0.0.0/+24", "", false},
		{"10.0.0.0/ 8-24", "10.0.0.0/ 24", "", false},
		{"10.0.0.0/8-24x", "10.0.0.0/24x", "", false},
		{"10.0.0.0/08-24", "10.0.0.0/024", "", false},
		{"10.0.0.0/8--24", "10.0.0.0/-0", "", false},
	} {
		if _, err := ParseV4Window(tc.window); (err == nil) != tc.ok {
			t.Errorf("ParseV4Window(%q): err %v, want ok %v", tc.window, err, tc.ok)
		}
		if _, err := ParseBlocklist(strings.NewReader(tc.block)); (err == nil) != tc.ok {
			t.Errorf("ParseBlocklist(%q): err %v, want ok %v", tc.block, err, tc.ok)
		}
		if tc.addr == "" {
			continue
		}
		if _, err := ipv6.ParseAddr("::ffff:" + tc.addr); (err == nil) != tc.ok {
			t.Errorf("ipv6.ParseAddr(%q): err %v, want ok %v", "::ffff:"+tc.addr, err, tc.ok)
		}
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	f := buildV4Fixture(t)
	w, err := V4Window(wire.IPv4AddrFrom(203, 0, 113, 0), 24, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: w, Probe: &ICMPEcho4Probe{}, Seed: []byte("md")}
	s, err := New(cfg, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	md := NewMetadata(cfg, stats, time.Now())
	if md.Probe != "icmp4_echoscan" || md.Sent != 256 || md.Unique == 0 {
		t.Errorf("metadata = %+v", md)
	}
	var buf bytes.Buffer
	if err := md.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"unique_responders"`) {
		t.Errorf("json = %s", buf.String())
	}
}
