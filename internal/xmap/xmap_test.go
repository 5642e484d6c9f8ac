package xmap

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// scanFixture is a miniature ISP: block 2001:db8::/56, /64 sub-prefixes,
// a few CPEs, one with a LAN delegation elsewhere in the block.
type scanFixture struct {
	eng   *netsim.Engine
	edge  *netsim.Edge
	drv   *SimDriver
	wans  []ipv6.Addr // CPE WAN addresses
	block ipv6.Prefix
}

const fixtureCPEs = 5

func buildFixture(t testing.TB) *scanFixture {
	t.Helper()
	f := &scanFixture{
		eng:   netsim.New(),
		block: ipv6.MustParsePrefix("2001:db8::/56"),
	}
	f.edge = netsim.NewEdge("scanner", ipv6.MustParseAddr("2001:beef::100"))
	core := netsim.NewRouter("core", netsim.ErrorPolicy{})
	isp := netsim.NewISPRouter("isp", f.block, netsim.ErrorPolicy{})

	coreScan := core.AddIface(ipv6.MustParseAddr("2001:beef::1"), "core:scan")
	coreISP := core.AddIface(ipv6.MustParseAddr("2001:feed::1"), "core:isp")
	ispUp := isp.AddIface(ipv6.MustParseAddr("2001:feed::2"), "isp:up")
	f.eng.Connect(f.edge.Iface(), coreScan)
	f.eng.Connect(coreISP, ispUp)
	core.AddRoute(f.block, coreISP)
	core.AddRoute(ipv6.MustParsePrefix("2001:beef::/64"), coreScan)
	isp.SetUpstream(ispUp)

	// CPE i: WAN /64 at sub-prefix index i (0..4); CPE 0 additionally
	// holds a LAN /64 delegated at index 200.
	for i := 0; i < fixtureCPEs; i++ {
		wanPrefix, err := f.block.Sub(64, uint128.From64(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		wanAddr := ipv6.SLAAC(wanPrefix, 0x0211_22ff_fe00_0000|uint64(i))
		cfg := netsim.CPEConfig{
			Name:      "cpe",
			WANAddr:   wanAddr,
			WANPrefix: wanPrefix,
		}
		if i == 0 {
			lan, err := f.block.Sub(64, uint128.From64(200))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Delegated = lan
		}
		cpe := netsim.NewCPE(cfg)
		down := isp.AddIface(ipv6.SLAAC(wanPrefix, 1), "isp:down")
		f.eng.Connect(down, cpe.WAN())
		if err := isp.Delegate(wanPrefix, down); err != nil {
			t.Fatal(err)
		}
		if cfg.Delegated.Bits() > 0 {
			if err := isp.Delegate(cfg.Delegated, down); err != nil {
				t.Fatal(err)
			}
		}
		f.wans = append(f.wans, wanAddr)
	}
	f.drv = NewSimDriver(f.eng, f.edge)
	return f
}

func window(t testing.TB, f *scanFixture) ipv6.Window {
	t.Helper()
	w, err := ipv6.NewWindow(f.block, 64)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runScan(t *testing.T, cfg Config, drv Driver) (Stats, []Response) {
	t.Helper()
	s, err := New(cfg, drv)
	if err != nil {
		t.Fatal(err)
	}
	var results []Response
	stats, err := s.Run(context.Background(), func(r Response) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	return stats, results
}

func TestScanDiscoversAllCPEs(t *testing.T) {
	f := buildFixture(t)
	stats, results := runScan(t, Config{Window: window(t, f), Seed: []byte("s1")}, f.drv)

	if stats.Sent != 256 {
		t.Errorf("sent = %d, want 256", stats.Sent)
	}
	found := map[ipv6.Addr]Response{}
	for _, r := range results {
		found[r.Responder] = r
	}
	for _, wan := range f.wans {
		r, ok := found[wan]
		if !ok {
			t.Errorf("CPE %s not discovered", wan)
			continue
		}
		if r.Kind != KindDestUnreach {
			t.Errorf("CPE %s found via %s", wan, r.Kind)
		}
	}
	// The ISP router's unassigned-space errors dedup to one responder.
	ispAddr := ipv6.MustParseAddr("2001:feed::2")
	if _, ok := found[ispAddr]; !ok {
		t.Error("ISP router not among responders")
	}
	// CPEs + ISP router; nothing else (LAN delegation answered by CPE 0's WAN).
	if len(found) != fixtureCPEs+1 {
		t.Errorf("unique responders = %d, want %d", len(found), fixtureCPEs+1)
	}
	if stats.Unique != uint64(len(results)) {
		t.Errorf("stats.Unique = %d, results = %d", stats.Unique, len(results))
	}
	if stats.Received != 256 {
		t.Errorf("received = %d, want 256 (every probe answered)", stats.Received)
	}
}

func TestSameDiffClassification(t *testing.T) {
	f := buildFixture(t)
	_, results := runScan(t, Config{Window: window(t, f), Seed: []byte("s2")}, f.drv)
	var sameCPE, diffCPE int
	for _, r := range results {
		if r.Responder != f.wans[0] {
			continue
		}
		if r.SamePrefix64() {
			sameCPE++
		} else {
			diffCPE++
		}
	}
	// CPE 0 is discovered once (dedup): either by its WAN /64 probe
	// (same) or its LAN delegation probe (diff), whichever the
	// permutation reached first.
	if sameCPE+diffCPE != 1 {
		t.Errorf("CPE0 discovered %d times", sameCPE+diffCPE)
	}
}

func TestScanDeterministicAcrossRuns(t *testing.T) {
	f1 := buildFixture(t)
	_, r1 := runScan(t, Config{Window: window(t, f1), Seed: []byte("same-seed")}, f1.drv)
	f2 := buildFixture(t)
	_, r2 := runScan(t, Config{Window: window(t, f2), Seed: []byte("same-seed")}, f2.drv)
	if len(r1) != len(r2) {
		t.Fatalf("runs differ: %d vs %d responders", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Responder != r2[i].Responder || r1[i].ProbeDst != r2[i].ProbeDst {
			t.Fatalf("result %d differs", i)
		}
	}
}

// countingDriver records how often each probe destination is sent and
// never produces responses; it lets shard-coverage properties run over
// windows far larger than any simulated topology.
type countingDriver struct {
	counts map[ipv6.Addr]int
}

func (d *countingDriver) Send(pkt []byte) error {
	if len(pkt) >= 40 && pkt[0]>>4 == 6 {
		d.counts[ipv6.AddrFrom128(uint128.FromBytes(pkt[24:40]))]++
	}
	return nil
}
func (d *countingDriver) Recv() [][]byte        { return nil }
func (d *countingDriver) SourceAddr() ipv6.Addr { return ipv6.MustParseAddr("2001:beef::100") }

// TestShardsTogetherCoverSpace is a property test: for random window
// widths and shard counts, the shards' target sets must partition the
// window — together complete (every address probed) and pairwise
// disjoint (no address probed twice).
func TestShardsTogetherCoverSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5ba2d))
	base := ipv6.MustParsePrefix("2001:db8::/48")
	for iter := 0; iter < 24; iter++ {
		width := 1 + rng.Intn(10)
		shards := 1 + rng.Intn(7)
		seed := []byte(fmt.Sprintf("shard-seed-%d", iter))
		w, err := ipv6.NewWindow(base, base.Bits()+width)
		if err != nil {
			t.Fatal(err)
		}
		counter := &countingDriver{counts: map[ipv6.Addr]int{}}
		drv := AdaptPacketDriver(counter)
		var sentTotal uint64
		for shard := 0; shard < shards; shard++ {
			stats, _ := runScan(t, Config{
				Window: w, Seed: seed,
				ShardIndex: shard, Shards: shards,
			}, drv)
			sentTotal += stats.Sent
		}
		space := uint64(1) << width
		if sentTotal != space {
			t.Errorf("width=%d shards=%d: sent %d total probes, want %d", width, shards, sentTotal, space)
		}
		if uint64(len(counter.counts)) != space {
			t.Errorf("width=%d shards=%d: %d distinct targets, want %d (incomplete cover)",
				width, shards, len(counter.counts), space)
		}
		for a, n := range counter.counts {
			if n != 1 {
				t.Errorf("width=%d shards=%d: target %s probed %d times (overlapping shards)",
					width, shards, a, n)
			}
		}
	}

	// End to end: sharded scans over the live fixture still find every
	// responder exactly once across shards.
	all := map[ipv6.Addr]bool{}
	var sentTotal uint64
	for shard := 0; shard < 4; shard++ {
		f := buildFixture(t)
		stats, results := runScan(t, Config{
			Window: window(t, f), Seed: []byte("shard-seed"),
			ShardIndex: shard, Shards: 4,
		}, f.drv)
		sentTotal += stats.Sent
		for _, r := range results {
			all[r.Responder] = true
		}
	}
	if sentTotal != 256 {
		t.Errorf("shards sent %d total probes, want 256", sentTotal)
	}
	if len(all) != fixtureCPEs+1 {
		t.Errorf("shards found %d responders, want %d", len(all), fixtureCPEs+1)
	}
}

func TestBlocklistSkips(t *testing.T) {
	f := buildFixture(t)
	blocked, err := f.block.Sub(64, uint128.From64(0))
	if err != nil {
		t.Fatal(err)
	}
	stats, results := runScan(t, Config{
		Window: window(t, f), Seed: []byte("s"),
		Blocklist: []ipv6.Prefix{blocked},
	}, f.drv)
	if stats.Blocked != 1 {
		t.Errorf("blocked = %d, want 1", stats.Blocked)
	}
	for _, r := range results {
		if blocked.Contains(r.ProbeDst) {
			t.Errorf("blocklisted prefix probed: %s", r.ProbeDst)
		}
	}
}

// TestBlockRuntimeSkipCounts: a prefix folded in via BlockRuntime (the
// alias detector's feedback path) skips exactly its window-cell count —
// inserted before the scan, the whole /60 (16 cells of the 256-cell
// window) is charged to Stats.Blocked and never probed.
func TestBlockRuntimeSkipCounts(t *testing.T) {
	f := buildFixture(t)
	blocked, err := f.block.Sub(60, uint128.From64(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Window: window(t, f), Seed: []byte("s")}, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	s.BlockRuntime(blocked)
	var results []Response
	stats, err := s.Run(context.Background(), func(r Response) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocked != 16 {
		t.Errorf("blocked = %d, want the region's 16 window cells", stats.Blocked)
	}
	if stats.Sent != 256-16 {
		t.Errorf("sent = %d, want %d", stats.Sent, 256-16)
	}
	for _, r := range results {
		if blocked.Contains(r.ProbeDst) {
			t.Errorf("runtime-blocklisted prefix probed: %s", r.ProbeDst)
		}
	}
}

// TestBlockRuntimeMidScan: insertion from inside the scan loop (a
// response handler, exactly where the alias detector sits) takes effect
// for every target the permutation has not yet visited — skipped and
// sent cells still partition the window.
func TestBlockRuntimeMidScan(t *testing.T) {
	f := buildFixture(t)
	blocked, err := f.block.Sub(58, uint128.From64(1)) // 64 cells
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Window: window(t, f), Seed: []byte("s"), DrainEvery: 8}, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	inserted := false
	stats, err := s.Run(context.Background(), func(r Response) {
		if !inserted {
			s.BlockRuntime(blocked)
			inserted = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inserted {
		t.Fatal("no response ever arrived; insertion never exercised")
	}
	if stats.Blocked == 0 {
		t.Error("mid-scan insertion skipped nothing")
	}
	if stats.Sent+stats.Blocked != 256 {
		t.Errorf("sent %d + blocked %d = %d, want the full 256-cell window",
			stats.Sent, stats.Blocked, stats.Sent+stats.Blocked)
	}
}

func TestMaxTargets(t *testing.T) {
	f := buildFixture(t)
	stats, _ := runScan(t, Config{Window: window(t, f), Seed: []byte("s"), MaxTargets: 10}, f.drv)
	if stats.Sent != 10 {
		t.Errorf("sent = %d, want 10", stats.Sent)
	}
}

func TestContextCancellation(t *testing.T) {
	f := buildFixture(t)
	s, err := New(Config{Window: window(t, f), Seed: []byte("s")}, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, nil); err == nil {
		t.Error("cancelled run returned nil error")
	}
}

func TestConfigValidation(t *testing.T) {
	f := buildFixture(t)
	w := window(t, f)
	cases := []Config{
		{}, // no window
		{Window: w, Shards: 2, ShardIndex: 2},
		{Window: w, Shards: 2, ShardIndex: -1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, f.drv); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(Config{Window: w}, nil); err == nil {
		t.Error("nil driver accepted")
	}
}

func TestValidationRejectsForgedReplies(t *testing.T) {
	// A driver that answers every echo probe with a mis-validated reply
	// (wrong id/seq) plus one honest reply.
	src := ipv6.MustParseAddr("2001:beef::100")
	honest := ipv6.MustParseAddr("2001:db8::aa")
	drv := &ChanDriver{Src: src, Fn: func(pkt []byte) [][]byte {
		sum, err := wire.ParsePacket(pkt)
		if err != nil || sum.ICMP == nil {
			return nil
		}
		e, err := wire.ParseEcho(sum.ICMP.Body)
		if err != nil {
			return nil
		}
		forged, err := wire.BuildEchoReply(sum.IP.Dst, src, 64, e.ID+1, e.Seq, nil)
		if err != nil {
			return nil
		}
		var out [][]byte
		out = append(out, forged)
		if sum.IP.Dst == honest {
			good, err := wire.BuildEchoReply(sum.IP.Dst, src, 64, e.ID, e.Seq, e.Data)
			if err != nil {
				return nil
			}
			out = append(out, good)
		}
		return out
	}}
	w, err := ipv6.NewWindow(ipv6.MustParsePrefix("2001:db8::/120"), 128)
	if err != nil {
		t.Fatal(err)
	}
	stats, results := runScan(t, Config{Window: w, Seed: []byte("v")}, drv)
	if stats.Invalid != 256 {
		t.Errorf("invalid = %d, want 256 forged rejections", stats.Invalid)
	}
	if len(results) != 1 || results[0].Responder != honest {
		t.Errorf("results = %+v", results)
	}
}

func TestTCPSynProbeAgainstStack(t *testing.T) {
	// One CPE with an open port 80 via a synthetic service stack is
	// covered in the services package; here validate the module's
	// classification against hand-built replies.
	p := &TCPSynProbe{Port: 80}
	src := ipv6.MustParseAddr("2001:beef::100")
	dst := ipv6.MustParseAddr("2001:db8::1")
	val := uint32(0xcafe1234)
	probe, err := p.AppendProbe(nil, src, dst, val)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := wire.ParsePacket(probe)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TCP.Seq != val || sum.TCP.Flags != wire.TCPSyn {
		t.Fatalf("probe TCP = %+v", sum.TCP)
	}
	// SYN/ACK response.
	synack := wire.TCPHeader{
		SrcPort: 80, DstPort: sum.TCP.SrcPort,
		Seq: 999, Ack: val + 1, Flags: wire.TCPSyn | wire.TCPAck,
	}
	reply, err := wire.BuildTCP(dst, src, 64, synack, nil)
	if err != nil {
		t.Fatal(err)
	}
	rsum, err := wire.ParsePacket(reply)
	if err != nil {
		t.Fatal(err)
	}
	validate := func(a ipv6.Addr) uint32 {
		if a == dst {
			return val
		}
		return 0
	}
	resp, ok := p.Classify(rsum, validate)
	if !ok || resp.Kind != KindTCPSynAck {
		t.Errorf("classify = %+v, %v", resp, ok)
	}
	// Wrong ack must fail validation.
	synack.Ack = val + 2
	reply2, err := wire.BuildTCP(dst, src, 64, synack, nil)
	if err != nil {
		t.Fatal(err)
	}
	rsum2, err := wire.ParsePacket(reply2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Classify(rsum2, validate); ok {
		t.Error("mis-acked SYN/ACK accepted")
	}
}

func TestDedupExactMatchesBloom(t *testing.T) {
	f1 := buildFixture(t)
	s1, _ := runScan(t, Config{Window: window(t, f1), Seed: []byte("d"), DedupExact: true}, f1.drv)
	f2 := buildFixture(t)
	s2, _ := runScan(t, Config{Window: window(t, f2), Seed: []byte("d")}, f2.drv)
	if s1.Unique != s2.Unique {
		t.Errorf("exact dedup found %d, bloom %d", s1.Unique, s2.Unique)
	}
}

func TestCSVAndJSONOutput(t *testing.T) {
	r := Response{
		Responder: ipv6.MustParseAddr("2001:db8::1"),
		ProbeDst:  ipv6.MustParseAddr("2001:db8::2"),
		Kind:      KindDestUnreach,
		Code:      3,
	}
	var cbuf bytes.Buffer
	co, err := NewCSVOutput(&cbuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cbuf.String(), "dest-unreach") || !strings.Contains(cbuf.String(), "true") {
		t.Errorf("csv = %q", cbuf.String())
	}

	var jbuf bytes.Buffer
	jo := NewJSONOutput(&jbuf)
	if err := jo.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := jo.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), `"kind":"dest-unreach"`) {
		t.Errorf("json = %q", jbuf.String())
	}
}

func TestRateLimiterPacing(t *testing.T) {
	rl := newRateLimiter(1000) // 1ms interval
	start := time.Now()
	for i := 0; i < 20; i++ {
		rl.wait()
	}
	elapsed := time.Since(start)
	if elapsed < 15*time.Millisecond {
		t.Errorf("20 waits at 1kpps took %v, want >=15ms", elapsed)
	}
}

func TestHitRate(t *testing.T) {
	s := Stats{Sent: 200, Unique: 10}
	if s.HitRate() != 0.05 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("zero-sent HitRate not 0")
	}
}

// buildLossyFixture is buildFixture with a seeded fault layer dropping
// each packet on the scanner uplink, in either direction, with
// probability loss.
func buildLossyFixture(t *testing.T, loss float64) *scanFixture {
	f := buildFixture(t)
	up, rng := f.edge.Iface(), rand.New(rand.NewSource(1234))
	f.eng.SetFault(func(from *netsim.Iface, _ []byte) netsim.FaultOutcome {
		return netsim.FaultOutcome{Drop: (from == up || from == up.Peer()) && rng.Float64() < loss}
	})
	return f
}

// TestScanSurvivesPacketLoss is the failure-injection case: a lossy
// vantage uplink degrades the hit rate but never corrupts results.
func TestScanSurvivesPacketLoss(t *testing.T) {
	f := buildLossyFixture(t, 0.3)
	stats, results := runScan(t, Config{Window: window(t, f), Seed: []byte("loss")}, f.drv)
	if stats.Sent != 256 {
		t.Errorf("sent = %d", stats.Sent)
	}
	// With 30% loss each way, roughly half the responses survive; the
	// scanner must not inflate Unique beyond what it received.
	if stats.Received < 50 || stats.Received > 220 {
		t.Errorf("received = %d at 30%% loss", stats.Received)
	}
	if stats.Unique > stats.Received {
		t.Errorf("unique %d > received %d", stats.Unique, stats.Received)
	}
	for _, r := range results {
		if !f.block.Contains(r.ProbeDst) && !r.ProbeDst.IsUnspecified() {
			t.Errorf("result outside window: %s", r.ProbeDst)
		}
	}
}

// TestScanTotalLoss: a black-holed uplink yields zero results, not an
// error.
func TestScanTotalLoss(t *testing.T) {
	f := buildLossyFixture(t, 1.0)
	stats, results := runScan(t, Config{Window: window(t, f), Seed: []byte("dead")}, f.drv)
	if stats.Received != 0 || len(results) != 0 {
		t.Errorf("received %d results through a dead link", stats.Received)
	}
}

func TestRetriesRecoverLoss(t *testing.T) {
	// At 40% one-way loss, a single probe sees ~36% of responders;
	// 8 probes per target nearly all of them.
	single := func(probes int) uint64 {
		f := buildLossyFixture(t, 0.4)
		stats, _ := runScan(t, Config{
			Window: window(t, f), Seed: []byte("retry"),
			ProbesPerTarget: probes,
		}, f.drv)
		return stats.Unique
	}
	one := single(1)
	eight := single(8)
	if eight <= one {
		t.Errorf("retries did not help: 1 probe -> %d unique, 8 probes -> %d", one, eight)
	}
	if eight < fixtureCPEs {
		t.Errorf("8 probes/target found only %d of %d CPEs (+ISP)", eight, fixtureCPEs)
	}
}

func TestProbesPerTargetValidation(t *testing.T) {
	f := buildFixture(t)
	if _, err := New(Config{Window: window(t, f), ProbesPerTarget: 99}, f.drv); err == nil {
		t.Error("absurd ProbesPerTarget accepted")
	}
}

func TestParseBlocklist(t *testing.T) {
	input := `
# reserved space
2001:db8::/32   # documentation
fe80::/10
::1
10.0.0.0/8
192.0.2.1
`
	prefixes, err := ParseBlocklist(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(prefixes) != 5 {
		t.Fatalf("parsed %d prefixes: %v", len(prefixes), prefixes)
	}
	want := []string{
		"2001:db8::/32", "fe80::/10", "::1/128",
		"::ffff:10.0.0.0/104", "::ffff:192.0.2.1/128",
	}
	for i, w := range want {
		if prefixes[i].String() != w {
			t.Errorf("prefix %d = %s, want %s", i, prefixes[i], w)
		}
	}
}

func TestParseBlocklistRejects(t *testing.T) {
	for _, bad := range []string{
		"2001:db8::/200",
		"10.0.0.0/40",
		"300.1.1.1",
		"1.2.3",
		"zzz::/12::",
	} {
		if _, err := ParseBlocklist(strings.NewReader(bad)); err == nil {
			t.Errorf("blocklist %q accepted", bad)
		}
	}
}

func TestBlocklistFileEndToEnd(t *testing.T) {
	f := buildFixture(t)
	prefixes, err := ParseBlocklist(strings.NewReader(f.block.String() + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	stats, results := runScan(t, Config{
		Window: window(t, f), Seed: []byte("bl"), Blocklist: prefixes,
	}, f.drv)
	if stats.Blocked != 256 || len(results) != 0 {
		t.Errorf("blocked=%d results=%d", stats.Blocked, len(results))
	}
}

// TestUDPDriverAsync runs the scanner over real loopback sockets: the
// responder bridges into a netsim engine, and replies arrive
// asynchronously across drains.
func TestUDPDriverAsync(t *testing.T) {
	f := buildFixture(t) // provides the engine and edge
	handler := func(pkt []byte) [][]byte {
		f.eng.Inject(f.edge.Iface(), pkt)
		return f.edge.DrainInto(nil)
	}
	drv, err := NewUDPDriver(ipv6.MustParseAddr("2001:beef::100"), handler)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := drv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	s, err := New(Config{Window: window(t, f), Seed: []byte("udp"), DrainEvery: 16}, drv)
	if err != nil {
		t.Fatal(err)
	}
	found := map[ipv6.Addr]bool{}
	deadline := time.Now().Add(10 * time.Second)
	// UDP delivery is asynchronous: re-drain until all CPEs are seen or
	// the deadline passes.
	if _, err := s.Run(context.Background(), func(r Response) { found[r.Responder] = true }); err != nil {
		t.Fatal(err)
	}
	for len(found) < fixtureCPEs+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		for _, raw := range drv.RecvBatch(nil) {
			sum, err := wire.ParsePacket(raw)
			if err != nil {
				continue
			}
			if resp, ok := (&ICMPEchoProbe{}).Classify(sum, s.Validation); ok {
				found[resp.Responder] = true
			}
		}
	}
	for _, wan := range f.wans {
		if !found[wan] {
			t.Errorf("CPE %s not discovered over UDP driver", wan)
		}
	}
}

func TestScanParallelMatchesSerial(t *testing.T) {
	fSerial := buildFixture(t)
	_, serialResults := runScan(t, Config{Window: window(t, fSerial), Seed: []byte("par")}, fSerial.drv)
	serial := map[ipv6.Addr]bool{}
	for _, r := range serialResults {
		serial[r.Responder] = true
	}

	fPar := buildFixture(t)
	parallel := map[ipv6.Addr]bool{}
	var mu sync.Mutex
	stats, err := ScanParallel(context.Background(), Config{
		Window: window(t, fPar), Seed: []byte("par"),
	}, fPar.drv, 4, func(r Response) {
		mu.Lock()
		parallel[r.Responder] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 256 {
		t.Errorf("parallel sent %d", stats.Sent)
	}
	if len(parallel) != len(serial) {
		t.Errorf("parallel found %d responders, serial %d", len(parallel), len(serial))
	}
	for a := range serial {
		if !parallel[a] {
			t.Errorf("parallel missed %s", a)
		}
	}
	if stats.Unique != uint64(len(parallel)) {
		t.Errorf("Unique = %d, handler saw %d", stats.Unique, len(parallel))
	}
}

func TestScanParallelCancellation(t *testing.T) {
	f := buildFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScanParallel(ctx, Config{Window: window(t, f), Seed: []byte("c")}, f.drv, 2, nil); err == nil {
		t.Error("cancelled parallel scan returned nil error")
	}
}

func TestFilteredOutput(t *testing.T) {
	r1 := Response{
		Responder: ipv6.MustParseAddr("2001:db8::1"),
		ProbeDst:  ipv6.MustParseAddr("2001:db8::2"),
		Kind:      KindDestUnreach, Code: 3,
	}
	r2 := Response{
		Responder: ipv6.MustParseAddr("2001:db8:1::1"),
		ProbeDst:  ipv6.MustParseAddr("2001:db8:1::1"),
		Kind:      KindEchoReply,
	}
	var buf bytes.Buffer
	jo := NewJSONOutput(&buf)
	fo, err := NewFilteredOutput(`kind == "dest-unreach"`, jo)
	if err != nil {
		t.Fatal(err)
	}
	if err := fo.Write(r1); err != nil {
		t.Fatal(err)
	}
	if err := fo.Write(r2); err != nil {
		t.Fatal(err)
	}
	if err := fo.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Errorf("filter passed %q", buf.String())
	}
	// Bad expression at construction.
	if _, err := NewFilteredOutput(`(((`, jo); err == nil {
		t.Error("bad filter accepted")
	}
	// Eval error (unknown field) surfaces from Write.
	fo2, err := NewFilteredOutput(`nonexistent == 1`, jo)
	if err != nil {
		t.Fatal(err)
	}
	if err := fo2.Write(r1); err == nil {
		t.Error("unknown field evaluated silently")
	}
}

func TestResponseRecordFields(t *testing.T) {
	r := Response{
		Responder: ipv6.MustParseAddr("2001:db8::1"),
		ProbeDst:  ipv6.MustParseAddr("2001:db8::99"),
		Kind:      KindTimeExceeded, Code: 0,
	}
	var rec filter.Record = &r
	for _, field := range []string{"responder", "probe_dst", "kind", "code", "same_prefix64"} {
		if _, ok := rec.Field(field); !ok {
			t.Errorf("field %q missing", field)
		}
	}
	if v, _ := rec.Field("same_prefix64"); v != true {
		t.Errorf("same_prefix64 = %v", v)
	}
}

func TestResponseKindStrings(t *testing.T) {
	for k, want := range map[ResponseKind]string{
		KindEchoReply: "echo-reply", KindDestUnreach: "dest-unreach",
		KindTimeExceeded: "time-exceeded", KindTCPSynAck: "tcp-synack",
		KindTCPRst: "tcp-rst", KindUDPData: "udp-data",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q", k, k.String())
		}
	}
	if ResponseKind(99).String() != "kind(99)" {
		t.Errorf("unknown kind = %q", ResponseKind(99).String())
	}
}

func TestProbeNames(t *testing.T) {
	if (&ICMPEchoProbe{}).Name() != "icmp6_echoscan" ||
		(&TCPSynProbe{}).Name() != "tcp_synscan" ||
		NewDNSProbe("x").Name() != "dnsscan" ||
		NewNTPProbe().Name() != "ntpscan" ||
		(&ICMPEcho4Probe{}).Name() != "icmp4_echoscan" {
		t.Error("probe names changed")
	}
	// Non-default hop limits apply.
	p := &ICMPEchoProbe{HopLimit: 32}
	pkt, err := p.AppendProbe(nil, ipv6.MustParseAddr("::1"), ipv6.MustParseAddr("::2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pkt[7] != 32 {
		t.Errorf("hop limit = %d", pkt[7])
	}
	// The cached echo image, patched into a reused buffer holding an
	// older probe, is the packet the wire builder makes.
	src, dst := ipv6.MustParseAddr("2001:beef::100"), ipv6.MustParseAddr("2001:db8::7")
	want, err := wire.BuildEchoRequest(src, dst, 32, 0x1234, 0x5678, nil)
	if err != nil {
		t.Fatal(err)
	}
	reused := bytes.Repeat([]byte{0xa5}, 128)
	if got, err := p.AppendProbe(reused[:0], src, dst, 0x12345678); err != nil || !bytes.Equal(got, want) {
		t.Errorf("AppendProbe into a reused buffer = %x, %v; want %x", got, err, want)
	}
	t4 := &TCPSynProbe{Port: 80, HopLimit: 40}
	pkt, err = t4.AppendProbe(nil, ipv6.MustParseAddr("::1"), ipv6.MustParseAddr("::2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pkt[7] != 40 {
		t.Errorf("tcp hop limit = %d", pkt[7])
	}
}

// ChanDriver is a test driver connecting the scanner to a handler
// function: every sent packet is answered by Fn (nil = drop).
type ChanDriver struct {
	Src ipv6.Addr
	Fn  func(pkt []byte) [][]byte

	buf [][]byte
}

var _ Driver = (*ChanDriver)(nil)

// SendBatch implements Driver.
func (d *ChanDriver) SendBatch(pkts [][]byte) (int, error) {
	for _, pkt := range pkts {
		if d.Fn != nil {
			d.buf = append(d.buf, d.Fn(pkt)...)
		}
	}
	return len(pkts), nil
}

// RecvBatch implements Driver.
func (d *ChanDriver) RecvBatch(buf [][]byte) [][]byte {
	buf = append(buf, d.buf...)
	clear(d.buf)
	d.buf = d.buf[:0]
	return buf
}

// SourceAddr implements Driver.
func (d *ChanDriver) SourceAddr() ipv6.Addr { return d.Src }
