package simtest

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/wire"
)

var (
	seedCount = flag.Int("seeds", 20, "number of seeds TestScenarios sweeps")
	baseSeed  = flag.Int64("base-seed", 1, "first seed of the sweep (replay a failure with -base-seed N -seeds 1)")
)

// TestScenarios is the scenario runner: for every seed in the sweep and
// every fault profile, it exercises xmap discovery, subnet inference
// and loopscan end to end with the invariant checkers attached, plus
// the per-seed differential oracles. Each subtest name carries the seed
// and profile, so a failure replays exactly with
//
//	go test ./internal/simtest -run 'TestScenarios/seed=N/profile' -base-seed N -seeds 1
func TestScenarios(t *testing.T) {
	for i := 0; i < *seedCount; i++ {
		seed := *baseSeed + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			report := func(t *testing.T, scenario string, problems []string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", scenario, err)
				}
				for _, p := range problems {
					t.Errorf("%s: %s", scenario, p)
				}
			}
			for _, p := range Profiles {
				p := p
				t.Run(p.Name, func(t *testing.T) {
					t.Logf("replay: go test ./internal/simtest -run 'TestScenarios/seed=%d/%s' -base-seed %d -seeds 1", seed, p.Name, seed)
					problems, err := RunDiscoveryScenario(seed, p)
					report(t, "discovery", problems, err)
					problems, err = RunSubnetScenario(seed, p)
					report(t, "subnet", problems, err)
					problems, err = RunLoopScenario(seed, p)
					report(t, "loopscan", problems, err)
				})
			}
			t.Run("oracle-routes", func(t *testing.T) {
				report(t, "lpm-vs-linear", RandomRouteOracle(seed), nil)
			})
			t.Run("oracle-udp", func(t *testing.T) {
				problems, err := RunUDPOracle(seed)
				report(t, "sim-vs-udp", problems, err)
			})
			t.Run("oracle-sharded", func(t *testing.T) {
				problems, err := RunShardOracle(seed, 4)
				report(t, "sharded-vs-single", problems, err)
			})
			t.Run("oracle-batch", func(t *testing.T) {
				for _, p := range Profiles {
					problems, err := RunBatchOracle(seed, p)
					report(t, "batch-vs-per-packet/"+p.Name, problems, err)
				}
			})
			t.Run("oracle-fastpath", func(t *testing.T) {
				for _, p := range Profiles {
					problems, err := RunFastPathOracle(seed, p)
					report(t, "fastpath-vs-interpreted/"+p.Name, problems, err)
				}
			})
			t.Run("oracle-tools", func(t *testing.T) {
				problems, err := RunToolParityOracle(seed)
				report(t, "tools-fastpath-vs-interpreted", problems, err)
			})
			t.Run("oracle-resume", func(t *testing.T) {
				for _, p := range Profiles {
					if !p.Lossless() {
						continue
					}
					problems, err := RunResumeOracle(seed, p)
					report(t, "kill-and-resume/"+p.Name, problems, err)
				}
			})
			t.Run("oracle-hostile", func(t *testing.T) {
				for _, hp := range HostileProfiles {
					problems, err := RunHostileOracle(seed, hp)
					report(t, "defended-vs-undefended/"+hp.Name, problems, err)
				}
			})
			t.Run("watchdog", func(t *testing.T) {
				problems, err := RunWatchdogScenario(seed)
				report(t, "wedged-driver-watchdog", problems, err)
			})
			t.Run("oracle-adaptive", func(t *testing.T) {
				for _, name := range []string{"loss", "ratelimit", "flap"} {
					p, ok := ProfileByName(name)
					if !ok {
						t.Fatalf("profile %s missing", name)
					}
					problems, err := RunAdaptiveOracle(seed, p)
					report(t, "adaptive-vs-blind/"+name, problems, err)
				}
			})
		})
	}
}

// TestProfilesCoverFaultClasses pins the sweep to the fault classes the
// harness promises: loss, duplication, reordering, ICMPv6 rate-limit
// bursts and link flaps.
func TestProfilesCoverFaultClasses(t *testing.T) {
	var loss, dup, reorder, ratelimit, flap bool
	for _, p := range Profiles {
		loss = loss || p.LossProb > 0
		dup = dup || p.DupProb > 0
		reorder = reorder || p.ReorderProb > 0
		ratelimit = ratelimit || p.ErrBurstLen > 0
		flap = flap || p.FlapLen > 0
	}
	if !loss || !dup || !reorder || !ratelimit || !flap {
		t.Fatalf("profile sweep incomplete: loss=%v dup=%v reorder=%v ratelimit=%v flap=%v",
			loss, dup, reorder, ratelimit, flap)
	}
	if _, ok := ProfileByName("chaos"); !ok {
		t.Error("chaos profile missing")
	}
}

// TestHostileProfilesCoverModes pins the adversarial sweep to every
// hostile responder model plus the honest baseline.
func TestHostileProfilesCoverModes(t *testing.T) {
	want := []netsim.HostileMode{
		netsim.HostileAliased, netsim.HostileSpoofer,
		netsim.HostileMalformed, netsim.HostileStorm,
	}
	for _, m := range want {
		found := false
		for _, hp := range HostileProfiles {
			if hp.Mode == m {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("hostile sweep missing mode %s", m)
		}
	}
	if hp, ok := HostileProfileByName("honest"); !ok || hp.Mode != 0 {
		t.Error("hostile sweep missing the honest baseline")
	}
}

// nullNode satisfies netsim.Node for taps exercised outside an engine.
type nullNode struct{}

func (nullNode) Name() string                                          { return "null" }
func (nullNode) Handle(in *netsim.Iface, pkt []byte) []netsim.Emission { return nil }

func testIface(name string) *netsim.Iface {
	return netsim.NewIface(nullNode{}, ipv6.MustParseAddr("fd00::1"), name)
}

func echoPkt(t *testing.T, hopLimit uint8) []byte {
	t.Helper()
	pkt, err := wire.BuildEchoRequest(
		ipv6.MustParseAddr("2001:beef::100"), ipv6.MustParseAddr("2001:db8::1"),
		hopLimit, 0x1234, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestInvariantsFlagHopLimitViolations proves the checker actually
// fires: a flow re-crossing the same link direction must continue a
// strictly-decreasing chain or replay an observed trajectory value —
// anything above or off the known trajectories is reported.
func TestInvariantsFlagHopLimitViolations(t *testing.T) {
	iface := testIface("a")
	// Hop limit above everything seen for the flow: violation.
	iv := NewInvariants(nil)
	iv.Tap(iface, echoPkt(t, 64), false)
	iv.Tap(iface, echoPkt(t, 65), false)
	if len(iv.Violations()) != 1 {
		t.Fatalf("violations = %v, want the increase reported", iv.Violations())
	}
	// Off-trajectory value (never observed, no chain above it): violation.
	iv2 := NewInvariants(nil)
	iv2.Tap(iface, echoPkt(t, 64), false)
	iv2.Tap(iface, echoPkt(t, 62), false) // loop re-crossing: 64 -> 62
	iv2.Tap(iface, echoPkt(t, 63), false) // 63 was never on the trajectory
	if len(iv2.Violations()) != 1 {
		t.Fatalf("violations = %v, want the off-trajectory value reported", iv2.Violations())
	}
	// A byte-identical replay (duplicate or retransmission) re-walking
	// the observed trajectory is legitimate.
	iv3 := NewInvariants(nil)
	for _, h := range []uint8{64, 62, 64, 62} {
		iv3.Tap(iface, echoPkt(t, h), false)
	}
	if len(iv3.Violations()) != 0 {
		t.Fatalf("violations = %v on a legitimate replayed trajectory", iv3.Violations())
	}
}

// TestInvariantsFlagBadChecksums corrupts one payload byte and expects
// the wire-validity check to fire.
func TestInvariantsFlagBadChecksums(t *testing.T) {
	iv := NewInvariants(nil)
	pkt := echoPkt(t, 64)
	pkt[len(pkt)-1] ^= 0xff
	iv.Tap(testIface("a"), pkt, false)
	if len(iv.Violations()) != 1 {
		t.Fatalf("violations = %v, want a checksum finding", iv.Violations())
	}
}

// TestInvariantsFlagCirculation replays one flow past the 255-crossing
// amplification cap and expects exactly one report.
func TestInvariantsFlagCirculation(t *testing.T) {
	iv := NewInvariants(nil)
	iface := testIface("a")
	pkt := echoPkt(t, 64)
	for i := 0; i < 300; i++ {
		iv.Tap(iface, pkt, false)
	}
	found := 0
	for _, v := range iv.Violations() {
		if len(v) > 0 {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("violations = %d, want exactly one circulation report", found)
	}
	if iv.Taps() != 300 {
		t.Errorf("taps = %d, want 300", iv.Taps())
	}
}

// TestInjectorDeterminism: the same seed yields the identical decision
// sequence, and a different seed diverges — the property every replay
// depends on.
func TestInjectorDeterminism(t *testing.T) {
	chaos, ok := ProfileByName("chaos")
	if !ok {
		t.Fatal("chaos profile missing")
	}
	decisions := func(seed int64) []string {
		inj := NewInjector(seed, chaos)
		var out []string
		pkt := echoPkt(t, 64)
		for i := 0; i < 400; i++ {
			o := inj.Apply(nil, pkt)
			out = append(out, fmt.Sprintf("%v/%v", o.Drop, o.Deliveries))
		}
		return out
	}
	a, b := decisions(7), decisions(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := decisions(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical decision sequences")
	}
}

// TestInjectorApplyAllocFree: a fault decision allocates nothing, so the
// injector adds no garbage to a chaos scan's hot loop. Loss, reorder and
// chaos all read 0 allocations over 10,000 Apply calls; the one
// allocation the injector may make is the dup ledger's map growing for a
// new flow, and a single repeated packet is one flow. The count is taken
// whole rather than with testing.AllocsPerRun, whose integer average
// reads an allocation every third call as 0.
func TestInjectorApplyAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pkt := echoPkt(t, 64)
	for _, name := range []string{"loss", "reorder", "chaos"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		inj := NewInjector(1, p)
		// Warm up until chaos has duplicated the packet once, so the
		// ledger already holds its flow.
		for i := 0; i < 100; i++ {
			inj.Apply(nil, pkt)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10_000; i++ {
			inj.Apply(nil, pkt)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: %d allocations in 10,000 Apply calls, want 0 (stats %+v)", name, n, inj.Stats())
		}
	}
}

// TestInjectorRateLimitTargetsErrors: during a burst window, ICMPv6
// error messages drop while other traffic passes.
func TestInjectorRateLimitTargetsErrors(t *testing.T) {
	p, ok := ProfileByName("ratelimit")
	if !ok {
		t.Fatal("ratelimit profile missing")
	}
	inj := NewInjector(1, p)
	// Handcrafted ICMPv6 Time Exceeded: version 6, next header 58,
	// type 3 (< 128 marks an error message).
	errPkt := make([]byte, 48)
	errPkt[0] = 0x60
	errPkt[6] = 58
	errPkt[40] = 3
	if out := inj.Apply(nil, errPkt); !out.Drop {
		t.Error("error message survived the burst window")
	}
	if out := inj.Apply(nil, echoPkt(t, 64)); out.Drop {
		t.Error("echo request dropped by the rate limiter")
	}
}

// TestPacketKeyHopLimitInvariant: the flow key must survive forwarding
// (hop-limit decrement) but distinguish different flows.
func TestPacketKeyHopLimitInvariant(t *testing.T) {
	a64 := echoPkt(t, 64)
	a63 := append([]byte(nil), a64...)
	a63[7] = 63
	if PacketKey(a64) != PacketKey(a63) {
		t.Error("key changed across a hop-limit decrement")
	}
	b, err := wire.BuildEchoRequest(
		ipv6.MustParseAddr("2001:beef::100"), ipv6.MustParseAddr("2001:db8::2"),
		64, 0x1234, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if PacketKey(a64) == PacketKey(b) {
		t.Error("different destinations share a flow key")
	}
}
