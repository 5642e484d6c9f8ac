package tga

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/xmap"
)

func TestTrainRequiresSeeds(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("empty seed set accepted")
	}
}

func TestGenerateStaysInSeedPrefix(t *testing.T) {
	// All seeds share a /32: every candidate must too (the per-nybble
	// model can only emit observed values).
	rng := rand.New(rand.NewSource(1))
	base := ipv6.MustParsePrefix("2001:db8::/32")
	var seeds []ipv6.Addr
	for i := 0; i < 100; i++ {
		seeds = append(seeds, ipv6.SLAAC(base, rng.Uint64()).WithIID(rng.Uint64()))
	}
	m, err := Train(seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range m.Generate(rng, 500) {
		if !base.Contains(cand) {
			t.Fatalf("candidate %s escaped seed prefix", cand)
		}
	}
}

// entropy is the empirical entropy (bits, 0..4) of one nybble position
// of m — the Entropy/IP fingerprint of where addresses vary.
func entropy(m *Model, pos int) float64 {
	if pos < 0 || pos >= nybbles {
		return 0
	}
	var h float64
	for _, c := range m.counts[pos] {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(m.seeds)
		h -= p * math.Log2(p)
	}
	return h
}

func TestEntropyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := ipv6.MustParsePrefix("2001:db8:1111:2222::/64")
	var seeds []ipv6.Addr
	for i := 0; i < 200; i++ {
		seeds = append(seeds, ipv6.SLAAC(base, rng.Uint64()))
	}
	m, err := Train(seeds)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed prefix nybbles: zero entropy. Random IID nybbles: near 4.
	for pos := 0; pos < 16; pos++ {
		if h := entropy(m, pos); h != 0 {
			t.Errorf("prefix nybble %d entropy = %v", pos, h)
		}
	}
	var iidH float64
	for pos := 16; pos < 32; pos++ {
		iidH += entropy(m, pos)
	}
	if iidH/16 < 3.2 {
		t.Errorf("IID mean entropy = %v, want ~4", iidH/16)
	}
	if entropy(m, -1) != 0 || entropy(m, 99) != 0 {
		t.Error("out-of-range entropy not 0")
	}
}

// TestSeedDiversityCeiling reproduces the paper's core criticism: with
// equal probe budgets over a populated ISP, the seed-trained generator
// rediscovers the neighborhoods of its seeds while the periphery scan
// enumerates every delegation.
func TestSeedDiversityCeiling(t *testing.T) {
	dep, err := topo.Build(topo.Config{
		Seed: 71, Scale: 0.0005, WindowWidth: 10,
		MaxDevicesPerISP: 250, OnlyISPs: []int{13},
	})
	if err != nil {
		t.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	budget := 1 << 10 // both approaches get one window's worth of probes

	// Seeds: a biased sample — the first 10% of devices (in practice,
	// hitlist seeds cluster in a few networks).
	var seeds []ipv6.Addr
	for i, d := range isp.Devices {
		if i >= len(isp.Devices)/10 {
			break
		}
		seeds = append(seeds, d.WANAddr)
	}
	model, err := Train(seeds)
	if err != nil {
		t.Fatal(err)
	}

	// TGA pass: probe each candidate, count distinct peripheries that
	// answer (by any ICMPv6 evidence).
	rng := rand.New(rand.NewSource(9))
	tgaFound := map[ipv6.Addr]bool{}
	for _, cand := range model.Generate(rng, budget) {
		pkt, err := wire.BuildEchoRequest(dep.Edge.Addr(), cand, 64, 0x7067, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		dep.Engine.Inject(dep.Edge.Iface(), pkt)
		for _, raw := range dep.Edge.DrainInto(nil) {
			sum, err := wire.ParsePacket(raw)
			if err != nil || sum.ICMP == nil {
				continue
			}
			if _, ok := dep.DeviceByWAN(sum.IP.Src); ok {
				tgaFound[sum.IP.Src] = true
			}
		}
	}

	// Periphery scan with the same budget.
	scanner, err := xmap.New(xmap.Config{Window: isp.Window, Seed: []byte("tga-cmp")}, drv)
	if err != nil {
		t.Fatal(err)
	}
	xmapFound := map[ipv6.Addr]bool{}
	if _, err := scanner.Run(context.Background(), func(r xmap.Response) {
		if _, ok := dep.DeviceByWAN(r.Responder); ok {
			xmapFound[r.Responder] = true
		}
	}); err != nil {
		t.Fatal(err)
	}

	if len(xmapFound) < len(isp.Devices)*9/10 {
		t.Fatalf("periphery scan found %d of %d", len(xmapFound), len(isp.Devices))
	}
	if len(tgaFound)*2 >= len(xmapFound) {
		t.Errorf("TGA found %d peripheries vs scan's %d; expected the seed ceiling to bite",
			len(tgaFound), len(xmapFound))
	}
}
