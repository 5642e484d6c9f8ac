package netsim

import (
	"testing"

	"repro/internal/ipv6"
)

// recorder is a sink node that remembers payloads in arrival order.
type recorder struct {
	name string
	got  [][]byte
}

func (r *recorder) Name() string { return r.name }
func (r *recorder) Handle(in *Iface, pkt []byte) []Emission {
	r.got = append(r.got, append([]byte(nil), pkt...))
	return nil
}

// hookPair wires an injector interface to a recorder node.
func hookPair(e *Engine) (*Iface, *recorder) {
	src := &recorder{name: "src"}
	sink := &recorder{name: "sink"}
	a := NewIface(src, ipv6.MustParseAddr("fd00::1"), "a")
	b := NewIface(sink, ipv6.MustParseAddr("fd00::2"), "b")
	e.Connect(a, b)
	return a, sink
}

func TestTapObservesTransmissions(t *testing.T) {
	e := New()
	a, sink := hookPair(e)
	var seen, dropped int
	e.SetTap(func(from *Iface, pkt []byte, wasDropped bool) {
		seen++
		if wasDropped {
			dropped++
		}
	})
	e.Inject(a, []byte{1})
	e.Inject(a, []byte{2})
	if seen != 2 || dropped != 0 {
		t.Errorf("tap saw %d transmissions (%d dropped), want 2 (0)", seen, dropped)
	}
	if len(sink.got) != 2 {
		t.Errorf("sink received %d packets", len(sink.got))
	}
	// Removing the tap stops observation.
	e.SetTap(nil)
	e.Inject(a, []byte{3})
	if seen != 2 {
		t.Errorf("tap saw %d after removal", seen)
	}
}

func TestFaultDropDiscardsButCountsStats(t *testing.T) {
	e := New()
	a, sink := hookPair(e)
	e.SetFault(func(from *Iface, pkt []byte) FaultOutcome {
		return FaultOutcome{Drop: true}
	})
	var taggedDropped bool
	e.SetTap(func(from *Iface, pkt []byte, wasDropped bool) { taggedDropped = wasDropped })
	e.Inject(a, []byte{1})
	if len(sink.got) != 0 {
		t.Errorf("dropped packet delivered")
	}
	if !taggedDropped {
		t.Error("tap not told about the drop")
	}
	if got := a.link.StatsFrom(a).Packets; got != 1 {
		t.Errorf("link stats = %d, want 1 (drop still counted as carried)", got)
	}
}

func TestFaultDuplicateDeliversCopies(t *testing.T) {
	e := New()
	a, sink := hookPair(e)
	e.SetFault(func(from *Iface, pkt []byte) FaultOutcome {
		return FaultOutcome{Deliveries: []int{0, 0}}
	})
	e.Inject(a, []byte{7})
	if len(sink.got) != 2 {
		t.Fatalf("duplication delivered %d packets, want 2", len(sink.got))
	}
	// Copies must be independent buffers: mutating one must not affect
	// the other (nodes mutate packets in place).
	sink.got[0][0] = 99
	if sink.got[1][0] != 7 {
		t.Error("duplicate shares the original packet buffer")
	}
	if got := a.link.StatsFrom(a).Packets; got != 2 {
		t.Errorf("link stats = %d, want 2 (each copy crosses the link)", got)
	}
}

// fanout emits three fixed packets toward out when poked from any other
// interface.
type fanout struct {
	name string
	out  *Iface
}

func (f *fanout) Name() string { return f.name }
func (f *fanout) Handle(in *Iface, pkt []byte) []Emission {
	if in == f.out {
		return nil
	}
	return []Emission{
		{Out: f.out, Pkt: []byte{1}},
		{Out: f.out, Pkt: []byte{2}},
		{Out: f.out, Pkt: []byte{3}},
	}
}

func TestFaultReorderDefersDelivery(t *testing.T) {
	// Deferral is relative to deliveries enqueued later in the same
	// cascade, so the reorder must happen among emissions of one Handle:
	// poke a fanout node that emits 1,2,3 and defer the first past the
	// next two.
	e := New()
	src := &recorder{name: "src"}
	fan := &fanout{name: "fan"}
	sink := &recorder{name: "sink"}
	a := NewIface(src, ipv6.MustParseAddr("fd00::1"), "a")
	fin := NewIface(fan, ipv6.MustParseAddr("fd00::2"), "fan-in")
	fout := NewIface(fan, ipv6.MustParseAddr("fd00::3"), "fan-out")
	fan.out = fout
	b := NewIface(sink, ipv6.MustParseAddr("fd00::4"), "b")
	e.Connect(a, fin)
	e.Connect(fout, b)
	first := true
	e.SetFault(func(from *Iface, pkt []byte) FaultOutcome {
		if from == fout && first {
			first = false
			return FaultOutcome{Deliveries: []int{2}}
		}
		return FaultOutcome{}
	})
	e.Inject(a, []byte{9})
	want := []byte{2, 3, 1}
	if len(sink.got) != 3 {
		t.Fatalf("delivered %d packets", len(sink.got))
	}
	for i, w := range want {
		if sink.got[i][0] != w {
			t.Errorf("arrival %d = %d, want %d", i, sink.got[i][0], w)
		}
	}
}

// TestInjectBatchMatchesSequentialInject pins the equivalence the
// batch-vs-per-packet differential oracle relies on: under an identical
// seeded fault layer, a batch injection and the same packets injected
// one at a time produce the same arrivals in the same order.
func TestInjectBatchMatchesSequentialInject(t *testing.T) {
	run := func(batch bool) [][]byte {
		e := New()
		a, sink := hookPair(e)
		n := 0
		e.SetFault(func(from *Iface, pkt []byte) FaultOutcome {
			n++
			switch n % 4 {
			case 1:
				return FaultOutcome{Deliveries: []int{1}}
			case 2:
				return FaultOutcome{Drop: true}
			case 3:
				return FaultOutcome{Deliveries: []int{0, 0}}
			}
			return FaultOutcome{}
		})
		pkts := [][]byte{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
		if batch {
			e.InjectBatch(a, pkts)
		} else {
			for _, p := range pkts {
				e.Inject(a, p)
			}
		}
		return sink.got
	}
	one, many := run(false), run(true)
	if len(one) != len(many) {
		t.Fatalf("sequential delivered %d, batch %d", len(one), len(many))
	}
	for i := range one {
		if one[i][0] != many[i][0] {
			t.Errorf("arrival %d: sequential %d, batch %d", i, one[i][0], many[i][0])
		}
	}
}

func TestNoFaultKeepsFIFO(t *testing.T) {
	e := New()
	a, sink := hookPair(e)
	e.InjectBatch(a, [][]byte{{1}, {2}, {3}, {4}})
	for i, pkt := range sink.got {
		if pkt[0] != byte(i+1) {
			t.Fatalf("FIFO broken without faults: arrival %d = %d", i, pkt[0])
		}
	}
}
