package loopscan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/topo"
	"repro/internal/xmap"
)

// TestScanWindowsPinned holds the loop sweep's observable output byte for
// byte: per fixture seed, a sha256 over the sweep's counts, every hop
// (sorted by address) with its verdict and same/diff split, and the
// CheckAddr verdict and responder for one target in each device's
// delegation (a UE's own /64). A change to how probes are built,
// validated or classified must leave these digests alone.
func TestScanWindowsPinned(t *testing.T) {
	want := map[int64]string{
		41: "8e23049eed43ab2f09f887b745478893ead2cb827d874670ec807c8d69587161",
		42: "dfdde0f5951e855a2341f0c76906955b9677ed2466d983c19903965ae44ebd22",
		43: "df40337601c878a38ddd283398617f18a7d2234607618575eb1b2bf50c99d2d7",
	}
	for _, seed := range []int64{41, 42, 43} {
		dep, err := topo.Build(topo.Config{
			Seed: seed, Scale: 0.0001, WindowWidth: 10,
			MaxDevicesPerISP: 120, OnlyISPs: []int{12},
		})
		if err != nil {
			t.Fatal(err)
		}
		det := NewDetector(xmap.NewSimDriver(dep.Engine, dep.Edge))
		isp := dep.ISPs[0]
		res, err := det.ScanWindows([]ipv6.Window{isp.Window}, []byte("seed"))
		if err != nil {
			t.Fatal(err)
		}

		h := sha256.New()
		put := func(v uint64) { h.Write(binary.BigEndian.AppendUint64(nil, v)) }
		addr := func(a ipv6.Addr) { b := a.Bytes(); h.Write(b[:]) }
		flag := func(b bool) {
			if b {
				put(1)
			} else {
				put(0)
			}
		}
		put(res.Targets)
		put(res.Responses)
		hops := make([]ipv6.Addr, 0, len(res.Hops))
		for a := range res.Hops {
			hops = append(hops, a)
		}
		slices.SortFunc(hops, ipv6.Addr.Cmp)
		for _, a := range hops {
			hop := res.Hops[a]
			addr(a)
			flag(hop.Vulnerable)
			put(uint64(hop.SameCount))
			put(uint64(hop.DiffCount))
		}
		for _, d := range isp.Devices {
			space := d.WANAddr.Prefix64()
			if d.CPE != nil && d.CPE.Delegated().Bits() > 0 {
				space = d.CPE.Delegated()
			}
			cr, err := det.CheckAddr(targetIn(space, []byte("pin")))
			if err != nil {
				t.Fatal(err)
			}
			addr(cr.Target)
			put(uint64(cr.Verdict))
			addr(cr.Responder)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if got != want[seed] {
			t.Errorf("seed %d: digest %s, want %s (targets %d, responses %d, hops %d)",
				seed, got, want[seed], res.Targets, res.Responses, len(hops))
		}
	}
}
