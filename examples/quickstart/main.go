// Quickstart: build a small simulated ISP, point the XMap scanner at its
// sub-prefix window, and print every periphery the unreachable-message
// technique exposes — the paper's core idea in ~60 lines.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/topo"
	"repro/internal/xmap"
)

var seed = flag.Int64("seed", 7, "simulation seed (same seed, same output)")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	// One ISP (China Mobile broadband), ~50 simulated home routers, each
	// delegated a /60 from the provider block.
	dep, err := topo.Build(topo.Config{
		Seed:             *seed,
		Scale:            0.0001,
		WindowWidth:      10,
		MaxDevicesPerISP: 50,
		OnlyISPs:         []int{13},
	})
	if err != nil {
		return err
	}
	isp := dep.ISPs[0]
	fmt.Fprintf(out, "ISP block %s, scanning window %s (%d sub-prefixes)\n",
		isp.Block, isp.Window, 1<<isp.Window.Width())

	// The scanner sends one ICMPv6 echo to a nonexistent address per
	// sub-prefix; the periphery's RFC 4443 unreachable reply exposes its
	// WAN address.
	scanner, err := xmap.New(xmap.Config{
		Window:     isp.Window,
		Seed:       []byte(fmt.Sprintf("quickstart-%d", *seed)),
		DedupExact: true,
	}, xmap.NewSimDriver(dep.Engine, dep.Edge))
	if err != nil {
		return err
	}

	found := 0
	stats, err := scanner.Run(context.Background(), func(r xmap.Response) {
		// Ground truth lets the example annotate each discovery.
		if dev, ok := dep.DeviceByWAN(r.Responder); ok {
			found++
			fmt.Fprintf(out, "  periphery %-40s vendor=%-14s via %s (probe %s)\n",
				r.Responder, dev.Vendor, r.Kind, r.ProbeDst)
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sent %d probes, discovered %d of %d simulated peripheries (hit rate %.2f%%)\n",
		stats.Sent, found, len(isp.Devices), 100*stats.HitRate())
	return nil
}
