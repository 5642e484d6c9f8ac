package netsim

import (
	"sync"

	"repro/internal/ipv6"
)

// Edge is the attachment point for external software — the scanner's
// vantage. Every packet delivered to it is buffered for the driver to
// drain. It never forwards or replies.
type Edge struct {
	name string
	ifc  *Iface

	mu  sync.Mutex
	buf [][]byte
}

var _ Node = (*Edge)(nil)

// NewEdge creates an edge node whose interface has the given address.
func NewEdge(name string, addr ipv6.Addr) *Edge {
	e := &Edge{name: name}
	e.ifc = NewIface(e, addr, name+":if")
	return e
}

// Name implements Node.
func (e *Edge) Name() string { return e.name }

// Iface returns the edge interface to connect into the topology.
func (e *Edge) Iface() *Iface { return e.ifc }

// AddIface returns an additional interface with the edge's address, so
// one vantage can attach into several shards of an EngineGroup (an
// interface can only be connected inside a single engine).
func (e *Edge) AddIface(name string) *Iface {
	return NewIface(e, e.ifc.addr, name)
}

// RetainsPackets implements PacketRetainer: delivered buffers are
// handed to the driver through DrainInto and come back to the engine
// only through ReleaseBufs.
func (e *Edge) RetainsPackets() bool { return true }

// Addr returns the edge's address (the scanner's source address).
func (e *Edge) Addr() ipv6.Addr { return e.ifc.addr }

// Handle implements Node: buffer everything.
func (e *Edge) Handle(_ *Iface, pkt []byte) []Emission {
	e.mu.Lock()
	e.buf = append(e.buf, pkt)
	e.mu.Unlock()
	return nil
}

// handleBatch is Handle for a burst: the batched fast path (inject.go)
// delivers a whole group's packets under one lock acquisition, in the
// same order k sequential Handle calls would append them.
func (e *Edge) handleBatch(pkts [][]byte) {
	if len(pkts) == 0 {
		return
	}
	e.mu.Lock()
	e.buf = append(e.buf, pkts...)
	e.mu.Unlock()
}

// DrainInto appends all buffered packets to dst and returns the
// extended slice, keeping the internal buffer's backing array for
// reuse — the steady-state drain path allocates nothing on either side.
func (e *Edge) DrainInto(dst [][]byte) [][]byte {
	e.mu.Lock()
	dst = append(dst, e.buf...)
	clear(e.buf)
	e.buf = e.buf[:0]
	e.mu.Unlock()
	return dst
}

// Pending returns the number of buffered packets.
func (e *Edge) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.buf)
}
