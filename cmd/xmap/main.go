// Command xmap runs the fast IPv6 periphery scanner against a simulated
// deployment — the CLI counterpart of the paper's released tool, with the
// Internet replaced by the repository's packet-level simulator (a raw
// socket driver would slot in behind the same xmap.Driver interface).
//
// Usage:
//
//	xmap -isp 13 -width 12 -scale 0.001 [-probe icmp|tcp:80|dns|ntp]
//	     [-shards 4 -shard 1] [-parallel 2] [-checkpoint f [-resume]]
//	     [-output csv|json] [-rate 100000]
//	xmap -window 2401::/48-64 ...       (scan an explicit window)
//	xmap -v4window 192.168.0.0/20-28 ...  (a NAT'd IPv4 neighborhood)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/xmap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "xmap:", err)
		os.Exit(1)
	}
}

// run executes one CLI invocation. Flags live on a private FlagSet and
// all output goes through the writer arguments, so tests drive the
// command end to end without process-global state.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("xmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ispIndex = fs.Int("isp", 13, "Table I ISP index to scan (1-15)")
		windowF  = fs.String("window", "", "explicit scan window (addr/from-to); overrides -isp's default window")
		v4F      = fs.String("v4window", "", `IPv4 scan window ("192.168.0.0/20-25"); implies the icmp4 probe`)
		width    = fs.Int("width", 12, "window width in bits for the generated deployment")
		scale    = fs.Float64("scale", 0.0005, "population scale relative to the paper")
		maxDev   = fs.Int("max-devices", 2000, "cap on devices per ISP")
		probeF   = fs.String("probe", "icmp", "probe module: icmp, tcp:<port>, dns, ntp")
		seed     = fs.Int64("seed", 1, "deployment and scan seed")
		shards   = fs.Int("shards", 1, "total shards")
		shard    = fs.Int("shard", 0, "this instance's shard index")
		rate     = fs.Int("rate", 0, "probe rate limit in pps (0 = unlimited)")
		batchN   = fs.Int("batch", 0, "probes per send burst / receive drain window (0 = default 64; 1 = per-probe sends)")
		probesN  = fs.Int("probes", 1, "probes per target (ZMap -P)")
		blockF   = fs.String("blocklist", "", "blocklist file (one prefix per line, # comments)")
		outputF  = fs.String("output", "csv", "output module: csv or json")
		filterF  = fs.String("filter", "", `output filter expression, e.g. 'kind == "dest-unreach" && !same_prefix64'`)
		maxTgt   = fs.Uint64("max-targets", 0, "stop after this many probes (0 = all)")
		quiet    = fs.Bool("quiet", false, "suppress the summary on stderr")
		metaF    = fs.String("metadata", "", "write JSON scan metadata to this file ('-' for stderr)")
		parallel = fs.Int("parallel", 1, "run this many shard scanners concurrently in this process")
		ringSize = fs.Int("ring", 0, "per-worker transmission queue capacity in packets (0 = direct sends)")
		retries  = fs.Int("retries", 0, "re-probe unanswered targets up to this many times with backoff")
		defend   = fs.Bool("defend", false, "adversarial defenses: alias/cooldown detection, strict reply validation, overload shedding")
		aimd     = fs.Bool("aimd", false, "adapt the send window to the reply rate (AIMD)")
		ckptF    = fs.String("checkpoint", "", "write a resumable scan checkpoint to this file (periodically, on SIGINT/SIGTERM, and on exit); output rows are flushed before each write, so they are durable up to the last checkpoint even across kill -9")
		ckptN    = fs.Uint64("checkpoint-every", 4096, "targets between periodic checkpoints")
		resumeF  = fs.Bool("resume", false, "resume the scan recorded in the -checkpoint file")
		monitorN = fs.Int("monitor-every", 0, "print a ZMap-style status line to stderr every N probed targets (0 = off)")
		fastF    = fs.Bool("fastpath", true, "compiled forwarding fast path in the simulated network: consulted at injection, for plain runs, when no fault layer or tap is installed (disable to A/B the interpreted engine)")
		statusF  = fs.String("status-json", "", "write the merged telemetry snapshot as JSON to this file ('-' for stderr)")
		listenF  = fs.String("listen", "", "serve /telemetry, /trace, expvar and pprof over HTTP on this address for the scan's duration")
		sampleF  = fs.Int("trace-sample", -1, "trace 1/2^k of targets through the full probe lifecycle (0 = every target, -1 = off)")
		traceOut = fs.String("trace-out", "", "write the probe-lifecycle trace to this file ('-' for stderr); a .json suffix selects Chrome-trace/Perfetto format, anything else NDJSON")
		watchF   = fs.Bool("watchdog", false, "watch per-shard progress and print a structured stall diagnosis to stderr when a shard wedges")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resumeF && *ckptF == "" {
		return fmt.Errorf("-resume needs -checkpoint to name the file")
	}

	// Every mode is one scan of one window through one simulated driver:
	// a Table I ISP's window (or -window) in the generated deployment, or
	// with -v4window a small NAT'd IPv4 neighborhood.
	var (
		window  ipv6.Window
		drv     *xmap.SimDriver
		seedFmt = "xmap-cli-%d"
		err     error
	)
	if *v4F != "" {
		if *probeF == "icmp" {
			*probeF = "icmp4"
		}
		window, drv, err = buildV4(*v4F, *seed)
		seedFmt = "xmap-cli-v4-%d"
	} else {
		window, drv, err = buildV6(topo.Config{
			Seed: *seed, Scale: *scale, WindowWidth: *width, MaxDevicesPerISP: *maxDev,
			FastPath: fastF,
		}, *windowF, *ispIndex)
	}
	if err != nil {
		return err
	}

	probe, err := parseProbe(*probeF)
	if err != nil {
		return err
	}

	var out xmap.OutputModule
	switch *outputF {
	case "csv":
		out, err = xmap.NewCSVOutput(stdout)
		if err != nil {
			return err
		}
	case "json":
		out = xmap.NewJSONOutput(stdout)
	default:
		return fmt.Errorf("unknown output module %q", *outputF)
	}
	if *filterF != "" {
		out, err = xmap.NewFilteredOutput(*filterF, out)
		if err != nil {
			return err
		}
	}

	var blocklist []ipv6.Prefix
	if *blockF != "" {
		fh, err := os.Open(*blockF)
		if err != nil {
			return err
		}
		blocklist, err = xmap.ParseBlocklist(fh)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	cfg := xmap.Config{
		Window:          window,
		Probe:           probe,
		Seed:            []byte(fmt.Sprintf(seedFmt, *seed)),
		Shards:          *shards,
		ShardIndex:      *shard,
		Rate:            *rate,
		DrainEvery:      *batchN,
		MaxTargets:      *maxTgt,
		ProbesPerTarget: *probesN,
		Blocklist:       blocklist,
		Retries:         *retries,
		AIMD:            *aimd,
		RingSize:        *ringSize,
		Defend:          *defend,
		DedupExact:      true,
	}
	// Telemetry shards, trace streams and watchdog slots are one per
	// worker of the run.
	workers := max(*parallel, 1)

	// Probe-lifecycle tracing attaches only when asked for; the sampler
	// is keyed by the scan seed, so the traced target set — and the
	// exported trace — is identical across runs of the same scan.
	var tracer *telemetry.Tracer
	if *sampleF >= 0 || *traceOut != "" {
		shift := *sampleF
		if shift < 0 {
			shift = 10 // -trace-out alone: a 1/1024 default
		}
		tracer = telemetry.NewTracer(telemetry.TracerOptions{
			Seed:        cfg.Seed,
			SampleShift: shift,
			ScanStreams: workers,
			SimStreams:  1,
		})
		cfg.Tracer = tracer
		drv.RegisterTracer(tracer)
	}
	if *watchF {
		wd := telemetry.NewWatchdog(workers, 8, tracer)
		cfg.Watchdog = wd
		wdStop := make(chan struct{})
		defer close(wdStop)
		go func() {
			ticker := time.NewTicker(500 * time.Millisecond)
			defer ticker.Stop()
			tick := uint64(0)
			for {
				select {
				case <-wdStop:
					return
				case <-ticker.C:
					tick++
					for _, d := range wd.Check(tick) {
						fmt.Fprintln(stderr, "xmap:", d)
					}
				}
			}
		}()
	}

	// Telemetry attaches only when an observability flag asks for it; a
	// bare scan keeps the zero-cost detached path.
	var reg *telemetry.Registry
	if *monitorN > 0 || *statusF != "" || *listenF != "" {
		reg = telemetry.New(telemetry.Options{Shards: workers})
		drv.RegisterTelemetry(reg)
		reg.AttachTracer(tracer)
		cfg.Telemetry = reg

		// SIGQUIT dumps the span streams and exemplars without stopping
		// the scan — the "what is it doing right now" escape hatch.
		quitCh := make(chan os.Signal, 1)
		signal.Notify(quitCh, syscall.SIGQUIT)
		defer signal.Stop(quitCh)
		go func() {
			for range quitCh {
				fmt.Fprintln(stderr, "xmap: SIGQUIT: trace dump")
				if derr := reg.DumpTrace(stderr); derr != nil {
					fmt.Fprintln(stderr, "xmap: trace dump:", derr)
				}
			}
		}()
	}
	if *monitorN > 0 {
		// The scan sets the total: it knows its own budget.
		cfg.Monitor = telemetry.NewMonitor(reg, stderr, *monitorN)
	}
	if *listenF != "" {
		srv, addr, lerr := reg.Serve(*listenF)
		if lerr != nil {
			return lerr
		}
		fmt.Fprintf(stderr, "xmap: telemetry on http://%s (telemetry, trace, debug/vars, debug/pprof)\n", addr)
		defer srv.Close()
	}

	// SIGINT/SIGTERM cancel the scan; with -checkpoint set, the exit path
	// writes a final resumable state first.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var writeErr error
	handler := func(r xmap.Response) {
		if werr := out.Write(r); werr != nil && writeErr == nil {
			writeErr = werr
		}
	}

	if *ckptF != "" {
		cfg.CheckpointPath = *ckptF
		cfg.CheckpointEvery = *ckptN
		// Rows reach stdout before the file lists their responders:
		// a resume suppresses exactly what a kill -9 cannot have lost.
		cfg.BeforeCheckpoint = out.Flush
	}
	if *resumeF {
		ck, err := xmap.LoadCheckpoint(*ckptF)
		if err != nil {
			return fmt.Errorf("loading checkpoint: %w", err)
		}
		cfg.ResumeFrom = ck
	}
	stats, err := xmap.ScanParallel(ctx, cfg, drv, workers, handler)
	if errors.Is(err, context.Canceled) && *ckptF != "" {
		fmt.Fprintf(stderr, "xmap: interrupted; resumable checkpoint written to %s (resume with -resume)\n", *ckptF)
		err = nil
	}
	if err != nil {
		return err
	}
	if writeErr != nil {
		return writeErr
	}
	if err := out.Flush(); err != nil {
		return err
	}
	cfg.Monitor.Final()
	if *statusF != "" {
		if err := writeSink(*statusF, stderr, reg.WriteJSON); err != nil {
			return fmt.Errorf("writing status JSON: %w", err)
		}
	}
	if *traceOut != "" {
		write := tracer.WriteNDJSON
		if strings.HasSuffix(*traceOut, ".json") {
			write = tracer.WriteChromeTrace
		}
		if err := writeSink(*traceOut, stderr, write); err != nil {
			return fmt.Errorf("writing probe trace: %w", err)
		}
	}
	if !*quiet {
		fmt.Fprintf(stderr,
			"scanned %s: sent %d, received %d, unique responders %d, hit rate %.4f%%, elapsed %s\n",
			window, stats.Sent, stats.Received, stats.Unique, 100*stats.HitRate(), stats.Elapsed)
		if stats.Retried > 0 || stats.RateDown > 0 {
			fmt.Fprintf(stderr,
				"reliability: retried %d, retry-dropped %d, exhausted %d, abandoned %d, aimd up/down %d/%d\n",
				stats.Retried, stats.RetryDropped, stats.RetryExhausted, stats.RetryAbandoned,
				stats.RateUp, stats.RateDown)
		}
		if stats.AliasDetected > 0 || stats.Quarantined > 0 || stats.Shed > 0 {
			fmt.Fprintf(stderr,
				"defense: aliases detected %d, cooldown probes %d, blocked %d, quarantined %d, shed %d\n",
				stats.AliasDetected, stats.AliasCooldown, stats.AliasBlocked, stats.Quarantined, stats.Shed)
		}
	}
	if *metaF != "" {
		md := xmap.NewMetadata(cfg, stats, time.Now())
		if err := writeSink(*metaF, stderr, md.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// buildV6 builds the Table I deployment and picks the window to scan:
// spec if given, else the window of the ISP with the given index.
func buildV6(cfg topo.Config, spec string, ispIndex int) (ipv6.Window, *xmap.SimDriver, error) {
	dep, err := topo.Build(cfg)
	if err != nil {
		return ipv6.Window{}, nil, err
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	if spec != "" {
		window, err := ipv6.ParseWindow(spec)
		return window, drv, err
	}
	for _, isp := range dep.ISPs {
		if isp.Spec.Index == ispIndex {
			return isp.Window, drv, nil
		}
	}
	return ipv6.Window{}, nil, fmt.Errorf("unknown ISP index %d", ispIndex)
}

// writeSink runs write against the named file ("-" means fallback,
// normally stderr), creating and closing the file around it.
func writeSink(name string, fallback io.Writer, write func(io.Writer) error) error {
	if name == "-" {
		return write(fallback)
	}
	fh, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func parseProbe(s string) (xmap.ProbeModule, error) {
	switch {
	case s == "icmp":
		return &xmap.ICMPEchoProbe{}, nil
	case s == "icmp4":
		return &xmap.ICMPEcho4Probe{}, nil
	case s == "dns":
		return xmap.NewDNSProbe("connectivity.xmap.example"), nil
	case s == "ntp":
		return xmap.NewNTPProbe(), nil
	case strings.HasPrefix(s, "tcp:"):
		port, err := strconv.ParseUint(strings.TrimPrefix(s, "tcp:"), 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad tcp port in %q", s)
		}
		return &xmap.TCPSynProbe{Port: uint16(port)}, nil
	}
	return nil, fmt.Errorf("unknown probe module %q", s)
}

// buildV4 builds a NAT'd IPv4 neighborhood inside the requested window
// — the Section II contrast, driveable from the CLI.
func buildV4(spec string, seed int64) (ipv6.Window, *xmap.SimDriver, error) {
	window, err := xmap.ParseV4Window(spec)
	if err != nil {
		return ipv6.Window{}, nil, err
	}

	eng := netsim.New()
	scanV4 := wire.IPv4AddrFrom(198, 51, 100, 7)
	edge := netsim.NewEdge("scanner4", ipv6.V4Mapped(uint32(scanV4)))
	isp := netsim.NewV4Router("isp4")
	up := isp.AddIface4(wire.IPv4AddrFrom(198, 51, 100, 1), "isp:up")
	eng.Connect(edge.Iface(), up)
	isp.AddRoute4(scanV4, 32, up)

	// Populate ~1/16 of the window with NAT homes.
	rng := rand.New(rand.NewSource(seed))
	size, _ := window.Size()
	homes := int(size.Lo / 16)
	if homes < 1 {
		homes = 1
	}
	base, _ := window.Base.Addr().AsV4()
	hostBits := uint(128 - window.To) // bits below the iterated boundary
	for i := 0; i < homes; i++ {
		slot := uint32(rng.Intn(int(size.Lo)))
		public := wire.IPv4Addr(base | slot<<hostBits | uint32(rng.Intn(1<<hostBits)))
		nat := netsim.NewNATGateway(fmt.Sprintf("home-%d", i), public,
			[]wire.IPv4Addr{wire.IPv4AddrFrom(192, 168, 1, 10)})
		down := isp.AddIface4(wire.IPv4AddrFrom(10, 0, byte(i>>8), byte(i)), "isp:down")
		eng.Connect(down, nat.WAN())
		isp.AddRoute4(public, 32, down)
	}

	return window, xmap.NewSimDriver(eng, edge), nil
}
