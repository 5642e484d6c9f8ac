// Package xmap implements the paper's primary contribution: the XMap
// fast IPv6 network scanner. It re-creates the ZMap architecture the
// paper extends — modular probes, stateless validation, random address
// permutation, sharding, rate limiting — with the key generalization that
// the target space is an arbitrary bit window of the IPv6 space (e.g.
// the /32-64 sub-prefix window of one ISP block), per Section IV-B.
package xmap

import (
	"bytes"
	"runtime"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// Driver abstracts the packet layer under the scanner. The contract is
// batch-first, mirroring how fast scanners actually talk to the kernel
// (sendmmsg/recvmmsg bursts): per-packet entry costs dominate at
// millions of probes per second, so the scanner always hands the driver
// a burst. The production analogue is a raw socket (or PF_RING); this
// repository provides the simulator drivers and an in-memory loopback
// for tests. Per-packet tools use SimDriver's PacketDriver shim instead.
type Driver interface {
	// SendBatch transmits a burst of raw IPv6 packets and returns how
	// many entered the packet layer. pkts[:n] were sent. A short write
	// with err == nil is transient backpressure (ENOBUFS-style): the
	// caller retries pkts[n:]. With err != nil, pkts[n] is the packet
	// that failed; the caller counts it as a send error and continues
	// with pkts[n+1:]. The driver must not retain the packet slices
	// after SendBatch returns — callers recycle them.
	SendBatch(pkts [][]byte) (int, error)
	// RecvBatch appends every packet that has arrived since the last
	// call to buf and returns the extended slice. It never blocks. The
	// caller owns buf and reuses it across calls (pass buf[:0] to
	// drain into the same backing array), so a steady-state receive
	// loop allocates nothing.
	RecvBatch(buf [][]byte) [][]byte
	// SourceAddr is the scanner's source address.
	SourceAddr() ipv6.Addr
}

// PacketDriver is the per-packet contract of tools that work one packet
// at a time: the follow-up tools reach it through EchoExchange (subnet
// inference, the loop detector, the traceroute baseline) or minitcp
// (zgrab-style service probes). Send must not retain pkt. SimDriver is
// the one bundled driver that implements it; wrap any PacketDriver with
// AdaptPacketDriver to run the scanner over it, which is what the
// batch-vs-per-packet differential oracle runs as its reference leg.
type PacketDriver interface {
	// Send transmits one raw IPv6 packet.
	Send(pkt []byte) error
	// Recv drains packets that have arrived since the last call. It
	// never blocks. The returned slice and the packets in it are valid
	// until the next Recv, which may hand them back to the packet layer
	// for reuse: a caller copies out whatever it keeps longer.
	Recv() [][]byte
	// SourceAddr is the scanner's source address.
	SourceAddr() ipv6.Addr
}

// EchoExchange is the follow-up tools' one probe path: it sends one
// icmp6_echoscan probe to a destination and returns the first reply
// ClassifyRaw validates for it, so a reply quoting another address, a
// foreign id/seq or a non-echo packet is never taken as the answer. The
// probe buffer is reused, and an echo Response holds no reference into
// its reply, so over SimDriver (whose Recv recycles the previous drain)
// a warm exchange allocates nothing. Not safe for concurrent use.
type EchoExchange struct {
	// Probe builds and classifies the probes. Its HopLimit may change
	// between calls to Ping.
	Probe ICMPEchoProbe
	// Validate gives each probe's id/seq; a reply must carry it back.
	Validate Validator

	drv PacketDriver
	buf []byte
}

// NewEchoExchange returns an exchange over drv probing at hopLimit.
func NewEchoExchange(drv PacketDriver, hopLimit uint8, validate Validator) *EchoExchange {
	return &EchoExchange{Probe: ICMPEchoProbe{HopLimit: hopLimit}, Validate: validate, drv: drv}
}

// Ping sends one probe to dst and returns the first validated reply for
// it; ok is false when none arrived. Errors are the probe build's or
// Send's.
func (x *EchoExchange) Ping(dst ipv6.Addr) (r Response, ok bool, err error) {
	x.buf, err = x.Probe.AppendProbe(x.buf, x.drv.SourceAddr(), dst, x.Validate(dst))
	if err != nil {
		return Response{}, false, err
	}
	if err := x.drv.Send(x.buf); err != nil {
		return Response{}, false, err
	}
	for _, raw := range x.drv.Recv() {
		if got, valid := x.Probe.ClassifyRaw(raw, x.Validate); valid && got.ProbeDst == dst {
			return got, true, nil
		}
	}
	return Response{}, false, nil
}

// Releaser is an optional Driver capability: hand packet buffers
// obtained from RecvBatch back to the packet layer once the caller has
// fully processed them, letting the simulator engines reuse the memory.
// The caller must drop every reference into the released buffers.
type Releaser interface {
	Release(pkts [][]byte)
}

// Flusher is an optional Driver capability for pipelined drivers
// (RingDriver): block until every packet accepted by SendBatch has
// entered the underlying packet layer or failed there, including a
// burst the pipeline is still handing over. The scanner flushes before
// each receive drain and before emitting a checkpoint, so a resumable
// state never has probes parked invisibly in a queue.
type Flusher interface {
	Flush()
}

// maxSendStalls bounds how many short writes sendAll tolerates in one
// burst before declaring the rest of it failed — a wedged driver must
// not hang the scan.
const maxSendStalls = 1 << 16

// sendAll pushes a burst through drv with the SendBatch short-write
// protocol and reports how many packets the driver took and how many
// failed: a transient short write retries the unsent tail after a yield,
// an errored packet fails once and the rest continue, and past
// maxSendStalls short writes the remainder fails. Every packet is
// counted exactly once. The scanner's direct sends and RingDriver's pump
// both use it.
func sendAll(drv Driver, pkts [][]byte) (sent, failed uint64) {
	stalls := 0
	for len(pkts) > 0 {
		n, err := drv.SendBatch(pkts)
		sent += uint64(n)
		pkts = pkts[n:]
		if len(pkts) == 0 {
			break
		}
		if err != nil {
			// pkts[0] is the packet the driver rejected.
			failed++
			pkts = pkts[1:]
			continue
		}
		// Short write without error: ENOBUFS-style pushback. Yield so
		// whatever drains the packet layer can run, then retry.
		if stalls++; stalls > maxSendStalls {
			failed += uint64(len(pkts))
			break
		}
		runtime.Gosched()
	}
	return sent, failed
}

// AdaptPacketDriver wraps a per-packet driver as a batch Driver: the
// batch entry points degrade to per-packet calls. The scanner run over
// the result is the old per-packet send path — which is exactly what
// the batch-vs-per-packet differential oracle runs as its reference
// leg.
func AdaptPacketDriver(p PacketDriver) Driver { return &packetAdapter{p: p} }

type packetAdapter struct{ p PacketDriver }

// SendBatch implements Driver: packets go out one Send at a time; the
// first failure reports how many preceded it.
func (a *packetAdapter) SendBatch(pkts [][]byte) (int, error) {
	for i, pkt := range pkts {
		if err := a.p.Send(pkt); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// RecvBatch implements Driver. Recv lends its packets only until the
// next Recv, while RecvBatch's caller owns what it gets (a KindUDPData
// Response keeps its Payload), so each packet is copied out.
func (a *packetAdapter) RecvBatch(buf [][]byte) [][]byte {
	for _, pkt := range a.p.Recv() {
		buf = append(buf, bytes.Clone(pkt))
	}
	return buf
}

// SourceAddr implements Driver.
func (a *packetAdapter) SourceAddr() ipv6.Addr { return a.p.SourceAddr() }

// SimDriver runs the scanner against a netsim topology through an edge
// node. Send and the batch entry points are safe for concurrent use;
// Recv is not, since each call recycles the previous one's packets.
type SimDriver struct {
	eng  *netsim.Engine
	edge *netsim.Edge
	rx   [][]byte // Recv's drain, handed back to the engine by the next Recv
}

var _ Driver = (*SimDriver)(nil)
var _ PacketDriver = (*SimDriver)(nil)

// NewSimDriver wires a driver to the engine at the given edge.
func NewSimDriver(eng *netsim.Engine, edge *netsim.Edge) *SimDriver {
	return &SimDriver{eng: eng, edge: edge}
}

// Send implements PacketDriver. The simulator is lock-step: by the time
// Send returns, every packet the probe will ever trigger has been
// delivered.
func (d *SimDriver) Send(pkt []byte) error {
	d.eng.Inject(d.edge.Iface(), pkt)
	return nil
}

// SendBatch implements Driver: one engine lock acquisition for the whole
// burst.
func (d *SimDriver) SendBatch(pkts [][]byte) (int, error) {
	d.eng.InjectBatch(d.edge.Iface(), pkts)
	return len(pkts), nil
}

// Recv implements PacketDriver. It first hands the previous call's
// packets back to the engine, then drains into the same slice, so a
// steady Send/Recv loop allocates nothing on the receive side.
func (d *SimDriver) Recv() [][]byte {
	d.eng.ReleaseBufs(d.rx)
	clear(d.rx)
	d.rx = d.edge.DrainInto(d.rx[:0])
	return d.rx
}

// RecvBatch implements Driver.
func (d *SimDriver) RecvBatch(buf [][]byte) [][]byte { return d.edge.DrainInto(buf) }

// Release implements Releaser.
func (d *SimDriver) Release(pkts [][]byte) { d.eng.ReleaseBufs(pkts) }

// SourceAddr implements Driver.
func (d *SimDriver) SourceAddr() ipv6.Addr { return d.edge.Addr() }

// RegisterTelemetry folds the engine's traffic totals into reg's
// snapshots. netsim deliberately does not import telemetry; the driver
// is the layer that knows both sides, so the glue lives here. The
// engine counts under its own lock and the collector reads at snapshot
// time — the simulation hot path pays nothing.
func (d *SimDriver) RegisterTelemetry(reg *telemetry.Registry) {
	reg.Register(engineCollector(d.eng.Counters))
}

// RegisterTracer attaches the probe-lifecycle tracer to the engine:
// sampled flows record their hop-level link crossings on the tracer's
// first simulator stream. Like RegisterTelemetry, the glue lives here
// so netsim never imports telemetry.
func (d *SimDriver) RegisterTracer(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	d.eng.SetFlowTracer(engineTracer{tr: tr, stream: tr.SimStream(0)})
}

// GroupDriver runs the scanner against a sharded netsim.EngineGroup:
// every probe is routed to the engine shard owning its destination
// prefix. Each burst is split across the shards and each part is
// injected under its shard's engine lock. ScanParallel's n workers over
// a topo.Config.Shards: n deployment each keep the window chunks of one
// shard, so a worker's burst is one part, and two workers meet only on
// pinned /64s and at the shared edge. All shards deliver responses to
// the same edge; Release hands reply buffers back without taking any
// engine lock.
type GroupDriver struct {
	grp  *netsim.EngineGroup
	edge *netsim.Edge
}

var _ Driver = (*GroupDriver)(nil)

// NewGroupDriver wires a driver to the engine group at the given edge.
// The edge must be attached to every shard (topo.Build deployments are).
func NewGroupDriver(grp *netsim.EngineGroup, edge *netsim.Edge) *GroupDriver {
	return &GroupDriver{grp: grp, edge: edge}
}

// SendBatch implements Driver.
func (d *GroupDriver) SendBatch(pkts [][]byte) (int, error) {
	d.grp.InjectBatch(pkts)
	return len(pkts), nil
}

// RecvBatch implements Driver.
func (d *GroupDriver) RecvBatch(buf [][]byte) [][]byte { return d.edge.DrainInto(buf) }

// Release implements Releaser.
func (d *GroupDriver) Release(pkts [][]byte) { d.grp.ReleaseBufs(pkts) }

// SourceAddr implements Driver.
func (d *GroupDriver) SourceAddr() ipv6.Addr { return d.edge.Addr() }

// RegisterTelemetry folds the group's summed engine totals into reg's
// snapshots (see SimDriver.RegisterTelemetry).
func (d *GroupDriver) RegisterTelemetry(reg *telemetry.Registry) {
	reg.Register(engineCollector(d.grp.Counters))
}

// RegisterTracer attaches the probe-lifecycle tracer to every engine
// shard, each on its own simulator stream (engine shards serialize
// independently, so per-shard streams keep single-writer ordering).
func (d *GroupDriver) RegisterTracer(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	for i := 0; i < d.grp.NumShards(); i++ {
		d.grp.Shard(i).SetFlowTracer(engineTracer{tr: tr, stream: tr.SimStream(i)})
	}
}

// engineTracer adapts the telemetry tracer to netsim's FlowTracer
// observer: the shared sampler decides flow membership, and each
// crossing lands as a hop span on the engine shard's stream.
type engineTracer struct {
	tr     *telemetry.Tracer
	stream int
}

func (t engineTracer) SampleFlow(hi, lo uint64) bool { return t.tr.Sample(hi, lo) }

func (t engineTracer) HopCrossing(hi, lo uint64, node, iface string, hopLimit uint8, dropped bool) {
	t.tr.Hop(t.stream, hi, lo, node, iface, hopLimit, dropped)
}

// engineCollector adapts a netsim counter source to a telemetry
// collector.
func engineCollector(counters func() netsim.Counters) telemetry.Collector {
	return func(add func(telemetry.Counter, uint64)) {
		c := counters()
		add(telemetry.SimEvents, c.Events)
		add(telemetry.SimTransmissions, c.Transmissions)
		add(telemetry.SimBytes, c.Bytes)
		add(telemetry.SimDropped, c.Dropped)
		add(telemetry.SimFastPathHits, c.FastPathHits)
		add(telemetry.SimFastPathMisses, c.FastPathMisses)
		add(telemetry.SimFastPathInvalidations, c.FastPathInvalidations)
		add(telemetry.SimFastPathCompiles, c.FastPathCompiles)
		add(telemetry.SimFastPathEvictions, c.FastPathEvictions)
	}
}
