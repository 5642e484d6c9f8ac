package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/lpm"
	"repro/internal/uint128"
)

// delegOp is one step of a script run against an ISPRouter and a linear
// reference table alike: Delegate p to down interface ifc, or, if addr
// is set, AddIface at p's address.
type delegOp struct {
	p    ipv6.Prefix
	ifc  int
	addr bool
}

// delegDowns is how many subscriber interfaces a script delegates to.
const delegDowns = 4

// delegIn returns the bits-long prefix of block holding the /64 with
// top word h.
func delegIn(h uint64, bits int) ipv6.Prefix {
	return ipv6.MustPrefix(ipv6.AddrFrom128(uint128.New(h, 0)), bits)
}

// checkDelegations runs ops and holds the router to lpm.Linear over the
// same inserts: lookup must return the reference's longest match, and
// gapIndex().assigned(h) must hold exactly when the reference matches
// h's /64 or one of the router's addresses lies in it. The queries are
// extra plus, for every op, its prefix's first and last /64, the /64s
// just outside it and one inside; each op's own queries also run right
// after it, so the rebuild at the first lookup after a mutation is
// exercised too. Every router address lies in the block, as topo
// places them.
func checkDelegations(tb testing.TB, block ipv6.Prefix, ops []delegOp, extra []ipv6.Addr) {
	tb.Helper()
	r := NewISPRouter("isp", block, ErrorPolicy{})
	ref := lpm.NewLinear[*Iface]()
	last, _ := block.NumSub(64)
	linkNet, err := block.Sub(64, last.Sub64(1))
	if err != nil {
		tb.Fatal(err)
	}
	addrs := []ipv6.Addr{ipv6.SLAAC(linkNet, 3)}
	var downs []*Iface
	for i := range delegDowns {
		downs = append(downs, r.AddIface(addrs[0], fmt.Sprintf("down%d", i)))
	}
	check := func(step int, a ipv6.Addr) {
		got, gotOK := r.lookup(a)
		want, wantOK := ref.Lookup(a)
		if got != want || gotOK != wantOK {
			name := func(ifc *Iface) string {
				if ifc == nil {
					return "none"
				}
				return ifc.Name()
			}
			tb.Fatalf("after op %d: lookup(%s) = %s; reference %s", step, a, name(got), name(want))
		}
		h := a.Uint128().Hi
		_, assigned := ref.Lookup(ipv6.AddrFrom128(uint128.New(h, 0)))
		for _, l := range addrs {
			assigned = assigned || l.Uint128().Hi == h
		}
		if got := r.gapIndex().assigned(h); got != assigned {
			tb.Fatalf("after op %d: assigned(%s/64) = %t, want %t", step, ipv6.AddrFrom128(uint128.New(h, 0)), got, assigned)
		}
	}
	opQueries := func(p ipv6.Prefix) []ipv6.Addr {
		lo, hi := p.First().Uint128().Hi, p.Last().Uint128().Hi
		var qs []ipv6.Addr
		for _, h := range []uint64{lo - 1, lo, lo + (hi-lo)/2, hi, hi + 1} {
			qs = append(qs, ipv6.AddrFrom128(uint128.New(h, 0x0211_22ff_fe00_0001)))
		}
		return qs
	}
	var all []ipv6.Addr
	for step, op := range ops {
		if op.addr {
			r.AddIface(op.p.Addr(), fmt.Sprintf("lo%d", step))
			addrs = append(addrs, op.p.Addr())
		} else {
			if err := r.Delegate(op.p, downs[op.ifc%delegDowns]); err != nil {
				tb.Fatalf("op %d: Delegate(%s): %v", step, op.p, err)
			}
			ref.Insert(op.p, downs[op.ifc%delegDowns])
		}
		qs := opQueries(op.p)
		for _, a := range qs {
			check(step, a)
		}
		all = append(all, qs...)
	}
	for _, a := range append(all, extra...) {
		check(len(ops), a)
	}
	if got, want := r.DelegationCount(), ref.Len(); got != want {
		tb.Errorf("DelegationCount = %d, reference holds %d", got, want)
	}
}

// randomDelegOps draws n ops in block (a /40): /44-/64 delegations that
// are scattered (their /64 indices reach 2^24), nested in or adjacent to
// an earlier one, or an earlier prefix re-delegated to another interface;
// router addresses in between; and, spliced in at a random point, a run
// of consecutive /64s as a WAN side region delegates them.
func randomDelegOps(rng *rand.Rand, block ipv6.Prefix, n int) []delegOp {
	base := block.Addr().Uint128().Hi
	anywhere := func() uint64 { return base | rng.Uint64()&(1<<24-1) }
	var ops []delegOp
	var delegs []int // positions in ops of the delegations
	for len(ops) < n {
		if rng.Intn(8) == 0 {
			a := ipv6.AddrFrom128(uint128.New(anywhere(), rng.Uint64()))
			ops = append(ops, delegOp{p: ipv6.MustPrefix(a, 128), addr: true})
			continue
		}
		op := delegOp{p: delegIn(anywhere(), 44+rng.Intn(21)), ifc: rng.Intn(delegDowns)}
		if len(delegs) > 0 {
			q := ops[delegs[rng.Intn(len(delegs))]]
			qlo, size := q.p.Addr().Uint128().Hi, uint64(1)<<(64-q.p.Bits())
			switch rng.Intn(4) {
			case 0: // re-delegated to another interface
				op = delegOp{p: q.p, ifc: q.ifc + 1 + rng.Intn(delegDowns-1)}
			case 1: // nested
				if q.p.Bits() < 64 {
					op.p = delegIn(qlo|rng.Uint64()&(size-1), q.p.Bits()+1+rng.Intn(64-q.p.Bits()))
				}
			case 2: // adjacent, on either side
				h := qlo + size
				if rng.Intn(2) == 0 {
					h = qlo - size
				}
				if block.Contains(ipv6.AddrFrom128(uint128.New(h, 0))) {
					op.p = delegIn(h, q.p.Bits())
				}
			}
		}
		delegs = append(delegs, len(ops))
		ops = append(ops, op)
	}
	side := make([]delegOp, 32+rng.Intn(200))
	first := anywhere() &^ (1<<8 - 1)
	for i := range side {
		side[i] = delegOp{p: delegIn(first+uint64(i), 64), ifc: rng.Intn(delegDowns)}
	}
	at := rng.Intn(len(ops) + 1)
	return append(ops[:at], append(side, ops[at:]...)...)
}

// TestDelegationIndexMatchesLinear is the delegation index's contract:
// for hand-picked rows and random scripts, lookup is the longest match of
// a linear LPM table over the same inserts, and the gap index's assigned
// set is the reference's delegated /64s plus the router's own.
func TestDelegationIndexMatchesLinear(t *testing.T) {
	block := sparseBlock
	base := block.Addr().Uint128().Hi
	sub := func(bits int, idx uint64) ipv6.Prefix {
		p, err := block.Sub(bits, uint128.From64(idx))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rows := []struct {
		name string
		ops  []delegOp
	}{
		{"lower index later", []delegOp{{p: sub(64, 40_000)}, {p: sub(64, 3)}}},
		{"re-delegated", []delegOp{{p: sub(64, 40_000)}, {p: sub(64, 3)}, {p: sub(64, 40_000), ifc: 1}}},
		{"index past 2^16", []delegOp{{p: sub(64, 1<<16)}, {p: sub(64, 1<<20+7), ifc: 1}, {p: sub(60, 1<<19), ifc: 2}}},
		{"nested", []delegOp{
			{p: sub(48, 1)}, {p: sub(56, 1<<8+2), ifc: 1}, {p: sub(64, 1<<16+2<<8+5), ifc: 2},
			{p: sub(64, 1<<16+2<<8+255), ifc: 3}, {p: sub(60, 1<<12+2<<4+1), ifc: 3},
		}},
		{"nested, widest last", []delegOp{{p: sub(64, 1<<16), ifc: 1}, {p: sub(56, 1<<8), ifc: 2}, {p: sub(48, 1)}}},
		{"adjacent", []delegOp{{p: sub(56, 9)}, {p: sub(56, 10), ifc: 1}, {p: sub(56, 8), ifc: 2}, {p: sub(52, 1)}}},
		{"router address in a delegation", []delegOp{{p: sub(56, 9)}, {p: delegIn(base|9<<8|4, 128), addr: true}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { checkDelegations(t, block, row.ops, nil) })
	}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var extra []ipv6.Addr
			for range 200 {
				extra = append(extra, ipv6.AddrFrom128(uint128.New(base|rng.Uint64()&(1<<24-1), rng.Uint64())))
			}
			for range 50 {
				extra = append(extra, ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64())))
			}
			extra = append(extra,
				ipv6.AddrFrom128(uint128.New(base-1, 1)),
				ipv6.AddrFrom128(uint128.New(base+1<<24, 1)))
			checkDelegations(t, block, randomDelegOps(rng, block, 20+rng.Intn(300)), extra)
		})
	}
}

// FuzzDelegationLookup decodes a delegation script from the input, five
// bytes an op: a length byte (44 + b%21, or a router address if b ≥ 0xf0),
// three bytes of /64 index within the /40 block and an interface byte.
// checkDelegations then holds the router to the linear reference.
func FuzzDelegationLookup(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 12, 0, 1, 0, 1})
	f.Add([]byte{4, 0, 1, 0, 0, 20, 0, 1, 2, 1, 20, 0, 1, 2, 2, 0xf0, 0, 1, 2, 0})
	f.Add([]byte{20, 0, 0, 3, 0, 20, 0, 0, 4, 1, 20, 0, 0, 5, 2, 8, 0, 0, 0, 3})
	block := sparseBlock
	base := block.Addr().Uint128().Hi
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []delegOp
		for ; len(data) >= 5 && len(ops) < 64; data = data[5:] {
			h := base | uint64(binary.BigEndian.Uint32(data[:4]))&(1<<24-1)
			if data[0] >= 0xf0 {
				a := ipv6.AddrFrom128(uint128.New(h, uint64(data[4])))
				ops = append(ops, delegOp{p: ipv6.MustPrefix(a, 128), addr: true})
				continue
			}
			ops = append(ops, delegOp{p: delegIn(h, 44+int(data[0])%21), ifc: int(data[4])})
		}
		checkDelegations(t, block, ops, []ipv6.Addr{
			ipv6.AddrFrom128(uint128.New(base-1, 1)),
			ipv6.AddrFrom128(uint128.New(base, 1)),
			ipv6.AddrFrom128(uint128.New(base+1<<24, 1)),
		})
	})
}
