package subnet

import (
	"encoding/binary"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
)

func inferISP(t *testing.T, index int) Result {
	t.Helper()
	dep, err := topo.Build(topo.Config{
		Seed: 21, Scale: 0.001, WindowWidth: 10,
		MaxDevicesPerISP: 120, OnlyISPs: []int{index},
	})
	if err != nil {
		t.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	res, err := Infer(drv, isp.Window.Base, Options{Seed: 5, MaxPreliminary: 4096})
	if err != nil {
		t.Fatalf("ISP %d (%s): %v", index, isp.Spec.Name, err)
	}
	return res
}

func TestInferBoundaryPerISPFamily(t *testing.T) {
	cases := []struct {
		isp  int
		want int
	}{
		{1, 64},  // Reliance Jio: /64
		{5, 56},  // Comcast: /56
		{6, 60},  // AT&T: /60
		{13, 60}, // China Mobile broadband: /60
		{15, 64}, // China Mobile mobile: /64
	}
	for _, c := range cases {
		res := inferISP(t, c.isp)
		if res.Length != c.want {
			t.Errorf("ISP %d inferred /%d, want /%d (samples %v)", c.isp, res.Length, c.want, res.Samples)
		}
	}
}

func TestInferRejectsLongBlock(t *testing.T) {
	dep, err := topo.Build(topo.Config{Seed: 1, Scale: 0.0001, WindowWidth: 10, MaxDevicesPerISP: 20, OnlyISPs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	sub64, err := dep.ISPs[0].Window.Base.Sub(64, uint128.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Infer(drv, sub64, Options{Seed: 1}); err == nil {
		t.Error("accepted a /64 block")
	}
}

func TestInferFailsOnEmptyBlock(t *testing.T) {
	// An ISP with a tiny population and a huge preliminary budget still
	// succeeds; an empty region fails cleanly.
	dep, err := topo.Build(topo.Config{Seed: 2, Scale: 0.0001, WindowWidth: 10, MaxDevicesPerISP: 10, OnlyISPs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	// Probe the second window-size region: reserved for WAN prefixes of
	// delegated ISPs, empty for ISP 1.
	empty, err := dep.ISPs[0].Block.Sub(54, uint128.One)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Infer(drv, empty, Options{Seed: 1, MaxPreliminary: 64}); err == nil {
		t.Error("inference in empty space succeeded")
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
	decoyAddr   = ipv6.MustParseAddr("2001:db8:eeee::211:22ff:fe33:4455")
	cpeAddr     = ipv6.MustParseAddr("2001:db8:dddd::2aa:bbff:fecc:ddee")
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

// TestInferIgnoresForeignReplies: every probe draws a forged reply
// answering another probe (see forged), then the honest
// address-unreachable error from one CPE. Inference must anchor on the
// CPE and, since it answers for every flipped bit, walk to the
// shallowest boundary. Matching an error on its quoted destination
// alone anchors on the decoy, and a forged echo reply hides the CPE.
func TestInferIgnoresForeignReplies(t *testing.T) {
	block := ipv6.MustParsePrefix("2001:db8:100::/40")
	for _, kind := range append([]string{"none"}, forgeries...) {
		t.Run(kind, func(t *testing.T) {
			drv := &answerDriver{answer: func(probe []byte) [][]byte {
				honest, err := wire.BuildDestUnreach(cpeAddr, scannerAddr, 64, wire.UnreachAddress, probe)
				if err != nil {
					t.Fatal(err)
				}
				if kind == "none" {
					return [][]byte{honest}
				}
				return [][]byte{forged(t, kind, probe), honest}
			}}
			res, err := Infer(drv, block, Options{Seed: 1, Repeats: 1, MaxPreliminary: 16})
			if err != nil {
				t.Fatal(err)
			}
			if res.Periphery != cpeAddr || res.Length != 41 {
				t.Errorf("inferred /%d anchored on %s, want /41 on %s", res.Length, res.Periphery, cpeAddr)
			}
		})
	}
}
