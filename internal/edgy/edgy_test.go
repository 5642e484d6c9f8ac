package edgy

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
)

func fixture(t *testing.T) (*topo.Deployment, *Tracer) {
	t.Helper()
	dep, err := topo.Build(topo.Config{
		Seed: 51, Scale: 0.0001, WindowWidth: 10,
		MaxDevicesPerISP: 60, OnlyISPs: []int{13},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep, NewTracer(xmap.NewSimDriver(dep.Engine, dep.Edge))
}

func TestTraceReachesCPE(t *testing.T) {
	dep, tr := fixture(t)
	dev := dep.ISPs[0].Devices[0]
	// Target a nonexistent address inside the device's delegation.
	deleg := dev.CPE.Delegated()
	n, _ := deleg.NumSub(64)
	sub, err := deleg.Sub(64, n.Sub64(2))
	if err != nil {
		t.Fatal(err)
	}
	dst := ipv6.SLAAC(sub, 0x4242)

	path, probes, err := tr.Trace(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	last := path[len(path)-1]
	if !last.Terminal {
		t.Errorf("path did not terminate: %+v", path)
	}
	if last.Addr != dev.WANAddr {
		t.Errorf("last hop = %s, want CPE %s", last.Addr, dev.WANAddr)
	}
	// Path: core, border, ISP, CPE -> at least 4 hops, >= 4 probes.
	if len(path) < 4 || probes < len(path) {
		t.Errorf("path %d hops, %d probes", len(path), probes)
	}
	// Hop distances ascend.
	for i := 1; i < len(path); i++ {
		if path[i].Distance <= path[i-1].Distance {
			t.Errorf("distances not ascending: %+v", path)
		}
	}
	// Intermediate hops are Time Exceeded.
	for _, hop := range path[:len(path)-1] {
		if hop.Kind != xmap.KindTimeExceeded || hop.Terminal {
			t.Errorf("intermediate hop %+v", hop)
		}
	}
}

func TestTraceToSilentSpace(t *testing.T) {
	_, tr := fixture(t)
	// Unrouted space: hop limit 1 dies at the core (Time Exceeded);
	// hop limit 2 gets routed and draws the core's no-route unreachable.
	// The walk terminates at depth 2.
	path, probes, err := tr.Trace(ipv6.MustParseAddr("3fff::1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || !path[1].Terminal || path[0].Terminal {
		t.Errorf("path = %+v", path)
	}
	if probes != 2 {
		t.Errorf("probes = %d", probes)
	}
}

func TestTraceEchoTerminal(t *testing.T) {
	dep, tr := fixture(t)
	dev := dep.ISPs[0].Devices[0]
	path, _, err := tr.Trace(dev.WANAddr)
	if err != nil {
		t.Fatal(err)
	}
	last := path[len(path)-1]
	if last.Addr != dev.WANAddr || last.Kind != xmap.KindEchoReply {
		t.Errorf("last = %+v", last)
	}
}

// TestBaselineVsXMapEfficiency reproduces the paper's Section III claim:
// per discovered periphery, the traceroute baseline spends several times
// the probes the unreachable-message technique needs, and buries the
// result in transit-interface noise.
func TestBaselineVsXMapEfficiency(t *testing.T) {
	dep, tr := fixture(t)
	isp := dep.ISPs[0]

	// Baseline: trace toward one random address per sub-prefix.
	var targets []ipv6.Addr
	size, _ := isp.Window.Size()
	for i := uint64(0); i < size.Lo; i++ {
		sub, err := isp.Window.Sub(uint128.From64(i))
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, ipv6.SLAAC(sub, 0x7777_0000|i))
	}
	census, err := tr.Discover(targets)
	if err != nil {
		t.Fatal(err)
	}

	// XMap on the identical window.
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	scanner, err := xmap.New(xmap.Config{Window: isp.Window, Seed: []byte("cmp")}, drv)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	stats, err := scanner.Run(context.Background(), func(r xmap.Response) {
		if _, ok := dep.DeviceByWAN(r.Responder); ok {
			found++
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	if found == 0 {
		t.Fatal("xmap found nothing")
	}
	// Same peripheries discovered by both...
	peris := 0
	for addr := range census.LastHops {
		if _, ok := dep.DeviceByWAN(addr); ok {
			peris++
		}
	}
	if peris < found*9/10 {
		t.Errorf("baseline found %d peripheries, xmap %d", peris, found)
	}
	// ...but the baseline pays several probes per target.
	if census.Probes < 2*int(stats.Sent) {
		t.Errorf("baseline probes %d not substantially above xmap %d", census.Probes, stats.Sent)
	}
	// And collects transit interfaces as noise.
	if len(census.Interfaces) <= len(census.LastHops) {
		t.Errorf("interfaces %d, last hops %d", len(census.Interfaces), len(census.LastHops))
	}
}

func TestProbesPerLastHop(t *testing.T) {
	c := &Census{Probes: 100, LastHops: map[ipv6.Addr]int{
		ipv6.MustParseAddr("::1"): 1,
		ipv6.MustParseAddr("::2"): 1,
	}}
	if got := c.ProbesPerLastHop(); got != 50 {
		t.Errorf("ProbesPerLastHop = %v", got)
	}
	if (&Census{}).ProbesPerLastHop() != 0 {
		t.Error("empty census not 0")
	}
}

// answerDriver is a per-packet test double in the style of
// xmap.ChanDriver: every probe sent is answered by answer(probe).
type answerDriver struct {
	answer func(probe []byte) [][]byte
	buf    [][]byte
}

func (d *answerDriver) Send(pkt []byte) error {
	d.buf = append(d.buf, d.answer(pkt)...)
	return nil
}

func (d *answerDriver) Recv() [][]byte {
	out := d.buf
	d.buf = nil
	return out
}

func (d *answerDriver) SourceAddr() ipv6.Addr { return scannerAddr }

var (
	scannerAddr = ipv6.MustParseAddr("2001:db8:ffff::1")
	decoyAddr   = ipv6.MustParseAddr("2001:db8:eeee::1")
	cpeAddr     = ipv6.MustParseAddr("2001:db8:dddd::1")
	otherAddr   = ipv6.MustParseAddr("2001:db8:cccc::1")
)

// forged returns a reply that answers some other probe: an error
// quoting the probed destination with another echo id or sequence
// number, one quoting the right id and sequence number sent to another
// destination, one quoting a non-echo packet, or an echo reply from the
// destination with a foreign id.
func forged(t *testing.T, kind string, probe []byte) []byte {
	t.Helper()
	dst := ipv6.AddrFromBytes(probe[24:40])
	id, seq := binary.BigEndian.Uint16(probe[44:46]), binary.BigEndian.Uint16(probe[46:48])
	var quote, pkt []byte
	var err error
	switch kind {
	case "foreign-id":
		quote, err = wire.BuildEchoRequest(scannerAddr, dst, probe[7], id+1, seq, nil)
	case "foreign-seq":
		quote, err = wire.BuildEchoRequest(scannerAddr, dst, probe[7], id, seq+1, nil)
	case "other-dst":
		quote, err = wire.BuildEchoRequest(scannerAddr, otherAddr, probe[7], id, seq, nil)
	case "udp-quote":
		quote, err = wire.BuildUDP(scannerAddr, dst, probe[7], 33000, 53, nil)
	case "echo-reply-foreign-id":
		pkt, err = wire.BuildEchoReply(dst, scannerAddr, 64, id+1, seq, nil)
	default:
		t.Fatalf("unknown forgery %q", kind)
	}
	if err == nil && pkt == nil {
		pkt, err = wire.BuildDestUnreach(decoyAddr, scannerAddr, 64, wire.UnreachAddress, quote)
	}
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

var forgeries = []string{"foreign-id", "foreign-seq", "other-dst", "udp-quote", "echo-reply-foreign-id"}

// TestTraceIgnoresForeignReplies: every probe draws a forged reply
// answering another probe (see forged), then the honest one: Time
// Exceeded from a router at hops 1 and 2, address unreachable from the
// CPE at hop 3. The trace must be the honest path. Matching an error on
// its quoted destination and echo id alone ends the trace at the decoy
// on a foreign sequence number, and a forged echo reply ends it too.
func TestTraceIgnoresForeignReplies(t *testing.T) {
	dst := ipv6.MustParseAddr("2001:db8:dddd:1::42")
	router := func(h uint8) ipv6.Addr { return ipv6.MustParseAddr(fmt.Sprintf("2001:db8:aaaa::%d", h)) }
	for _, kind := range append([]string{"none"}, forgeries...) {
		t.Run(kind, func(t *testing.T) {
			drv := &answerDriver{answer: func(probe []byte) [][]byte {
				honest, err := wire.BuildDestUnreach(cpeAddr, scannerAddr, 64, wire.UnreachAddress, probe)
				if h := probe[7]; h < 3 {
					honest, err = wire.BuildTimeExceeded(router(h), scannerAddr, 64, probe)
				}
				if err != nil {
					t.Fatal(err)
				}
				if kind == "none" {
					return [][]byte{honest}
				}
				return [][]byte{forged(t, kind, probe), honest}
			}}
			path, probes, err := NewTracer(drv).Trace(dst)
			if err != nil {
				t.Fatal(err)
			}
			want := []Hop{
				{Distance: 1, Addr: router(1), Kind: xmap.KindTimeExceeded},
				{Distance: 2, Addr: router(2), Kind: xmap.KindTimeExceeded},
				{Distance: 3, Addr: cpeAddr, Kind: xmap.KindDestUnreach, Terminal: true},
			}
			if !slices.Equal(path, want) || probes != 3 {
				t.Errorf("path %+v after %d probes, want %+v after 3", path, probes, want)
			}
		})
	}
}
