// Dual-stack contrast: the paper's Section II motivation, demonstrated.
// The same subscribers are modelled twice: behind IPv4 NAT (one public
// address, everything else hidden, services unreachable) and with IPv6
// global addressing (a delegated prefix per home, the periphery
// discoverable with one probe, its services reachable by anyone).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/services"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/xmap"
	"repro/internal/zgrab"
)

const homes = 8

var seed = flag.Int64("seed", 3, "simulation seed (same seed, same output)")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dualstack_contrast:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	if err := scanIPv4World(out); err != nil {
		return err
	}
	return scanIPv6World(out)
}

// scanIPv4World: brute-force the provider /24 (feasible: 256 probes for
// the whole space) and try the services.
func scanIPv4World(out io.Writer) error {
	eng := netsim.New()
	scanV4 := wire.IPv4AddrFrom(198, 51, 100, 7)
	edge := netsim.NewEdge("scanner4", ipv6.V4Mapped(uint32(scanV4)))
	isp := netsim.NewV4Router("isp4")
	up := isp.AddIface4(wire.IPv4AddrFrom(198, 51, 100, 1), "isp:up")
	eng.Connect(edge.Iface(), up)
	isp.AddRoute4(scanV4, 32, up)

	for i := 0; i < homes; i++ {
		public := wire.IPv4AddrFrom(203, 0, 113, byte(10+i))
		nat := netsim.NewNATGateway(fmt.Sprintf("home-%d", i), public,
			[]wire.IPv4Addr{wire.IPv4AddrFrom(192, 168, 1, 10)})
		down := isp.AddIface4(wire.IPv4AddrFrom(10, 0, 0, byte(2+i)), "isp:down")
		eng.Connect(down, nat.WAN())
		isp.AddRoute4(public, 32, down)
	}

	drv := xmap.NewSimDriver(eng, edge)
	w, err := xmap.V4Window(wire.IPv4AddrFrom(203, 0, 113, 0), 24, 32)
	if err != nil {
		return err
	}
	scanner, err := xmap.New(xmap.Config{Window: w, Probe: &xmap.ICMPEcho4Probe{}, Seed: []byte(fmt.Sprintf("v4-%d", *seed)), DedupExact: true}, drv)
	if err != nil {
		return err
	}
	found := 0
	stats, err := scanner.Run(context.Background(), func(r xmap.Response) {
		if r.Kind == xmap.KindEchoReply {
			found++
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "IPv4 world: brute-forced the whole /24 in %d probes.\n", stats.Sent)
	fmt.Fprintf(out, "  visible: %d NAT public addresses. Home networks: invisible.\n", found)
	fmt.Fprintf(out, "  services behind NAT: unreachable (no mappings; unsolicited inbound dropped).\n\n")
	return nil
}

// scanIPv6World: the same homes with global addressing — one probe per
// delegated prefix exposes the periphery, and its services answer the
// world.
func scanIPv6World(out io.Writer) error {
	dep, err := topo.Build(topo.Config{
		Seed: *seed, Scale: 0.0001, WindowWidth: 10,
		MaxDevicesPerISP: homes, OnlyISPs: []int{12},
	})
	if err != nil {
		return err
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	scanner, err := xmap.New(xmap.Config{Window: isp.Window, Seed: []byte(fmt.Sprintf("v6-%d", *seed)), DedupExact: true}, drv)
	if err != nil {
		return err
	}
	var peripheries []ipv6.Addr
	stats, err := scanner.Run(context.Background(), func(r xmap.Response) {
		if _, ok := dep.DeviceByWAN(r.Responder); ok {
			peripheries = append(peripheries, r.Responder)
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "IPv6 world: the same homes hold delegated prefixes inside a space that would\n")
	fmt.Fprintf(out, "  take 2^64+ probes to brute-force — but one probe per sub-prefix sufficed.\n")
	fmt.Fprintf(out, "  probes: %d, peripheries exposed: %d of %d homes\n", stats.Sent, len(peripheries), len(isp.Devices))

	prober := zgrab.New(drv)
	svcs := []services.ID{services.SvcDNS, services.SvcHTTP80, services.SvcHTTP8080}
	reachable := 0
	for _, addr := range peripheries {
		res, err := prober.ProbeDevice(addr, svcs)
		if err != nil {
			return err
		}
		if res.AliveCount() > 0 {
			reachable++
			for _, id := range svcs { // in the requested order: Results is a map
				if svc := res.Results[id]; svc.Alive {
					fmt.Fprintf(out, "  %-40s %-10s reachable globally (%s)\n", addr, svc.Service, svc.Software)
				}
			}
		}
	}
	fmt.Fprintf(out, "  homes with globally reachable services: %d (behind NAT these were invisible)\n", reachable)
	return nil
}
