package xmap

import (
	"context"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/services"
	"repro/internal/topo"
	"repro/internal/wire"
)

// parseForTest decodes a packet for direct module testing.
func parseForTest(raw []byte) (*wire.Summary, error) { return wire.ParsePacket(raw) }

// topoFixture builds a China Unicom block (rich DNS exposure).
func topoFixture(t *testing.T) (*topo.Deployment, *SimDriver) {
	t.Helper()
	dep, err := topo.Build(topo.Config{
		Seed: 81, Scale: 0.0005, WindowWidth: 10,
		MaxDevicesPerISP: 200, OnlyISPs: []int{12},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep, NewSimDriver(dep.Engine, dep.Edge)
}

// TestDNSProbeScanFindsOpenResolvers runs the dnsscan module over the
// window: devices running the DNS forwarder answer the A query directly
// at scan time (the paper's "741k open IPv6 DNS resolvers" pipeline,
// without the separate grab step).
func TestDNSProbeScanFindsOpenResolvers(t *testing.T) {
	dep, drv := topoFixture(t)
	isp := dep.ISPs[0]

	wantResolvers := map[string]bool{}
	for _, d := range isp.Devices {
		if _, ok := d.Services[services.SvcDNS]; ok {
			wantResolvers[d.WANAddr.String()] = true
		}
	}
	if len(wantResolvers) == 0 {
		t.Skip("no resolvers generated in sample")
	}

	// dnsscan runs against known addresses (a hitlist pass over the
	// discovered peripheries): verify the module per device.
	probe := NewDNSProbe("connectivity.example")
	for _, d := range isp.Devices {
		val := uint32(0xabcd0123)
		pkt, err := probe.AppendProbe(nil, dep.Edge.Addr(), d.WANAddr, val)
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.Send(pkt); err != nil {
			t.Fatal(err)
		}
		gotAnswer := false
		for _, raw := range drv.Recv() {
			sum, err := parseForTest(raw)
			if err != nil {
				continue
			}
			resp, ok := probe.Classify(sum, func(ipv6.Addr) uint32 { return val })
			if !ok {
				continue
			}
			if resp.Kind == KindUDPData {
				gotAnswer = true
			}
		}
		if want := wantResolvers[d.WANAddr.String()]; want != gotAnswer {
			t.Errorf("device %s (%v services): dns answered=%v want %v",
				d.WANAddr, len(d.Services), gotAnswer, want)
		}
	}
}

// TestNTPProbeModule exercises ntpscan against a CenturyLink-profile
// deployment (the NTP-heavy ISP).
func TestNTPProbeModule(t *testing.T) {
	dep, err := topo.Build(topo.Config{
		Seed: 83, Scale: 0.01, WindowWidth: 10,
		MaxDevicesPerISP: 300, OnlyISPs: []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewSimDriver(dep.Engine, dep.Edge)
	probe := NewNTPProbe()
	found, want := 0, 0
	for _, d := range dep.ISPs[0].Devices {
		if _, ok := d.Services[services.SvcNTP]; ok {
			want++
		}
		val := uint32(0x5a5a1111)
		pkt, err := probe.AppendProbe(nil, dep.Edge.Addr(), d.WANAddr, val)
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.Send(pkt); err != nil {
			t.Fatal(err)
		}
		for _, raw := range drv.Recv() {
			sum, err := parseForTest(raw)
			if err != nil {
				continue
			}
			if resp, ok := probe.Classify(sum, func(ipv6.Addr) uint32 { return val }); ok && resp.Kind == KindUDPData {
				found++
			}
		}
	}
	if want == 0 {
		t.Skip("no NTP devices in sample")
	}
	if found != want {
		t.Errorf("ntpscan found %d of %d NTP servers", found, want)
	}
}

// TestUDPProbeScanEndToEnd runs a full window scan with the dnsscan
// module: closed-port devices answer with ICMPv6 port-unreachable or
// nothing; the scan must complete and classify consistently.
func TestUDPProbeScanEndToEnd(t *testing.T) {
	dep, drv := topoFixture(t)
	isp := dep.ISPs[0]
	s, err := New(Config{
		Window: isp.Window,
		Probe:  NewDNSProbe("x.example"),
		Seed:   []byte("udp-scan"),
	}, drv)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[ResponseKind]int{}
	if _, err := s.Run(context.Background(), func(r Response) { kinds[r.Kind]++ }); err != nil {
		t.Fatal(err)
	}
	// Probes to nonexistent addresses draw dest-unreach (address) from
	// CPEs: the periphery is discoverable with the UDP module too.
	if kinds[KindDestUnreach] == 0 {
		t.Errorf("kinds = %v, want unreachables", kinds)
	}
}
