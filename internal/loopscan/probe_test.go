package loopscan

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"slices"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/topo"
	"repro/internal/xmap"
)

// recordingDriver keeps a copy of every probe sent and of each drain's
// replies.
type recordingDriver struct {
	xmap.PacketDriver
	sent  [][]byte
	recvd [][][]byte
}

func (r *recordingDriver) Send(pkt []byte) error {
	r.sent = append(r.sent, slices.Clone(pkt))
	return r.PacketDriver.Send(pkt)
}

func (r *recordingDriver) Recv() [][]byte {
	got := r.PacketDriver.Recv()
	var cp [][]byte
	for _, p := range got {
		cp = append(cp, slices.Clone(p))
	}
	r.recvd = append(r.recvd, cp)
	return got
}

// loopingDevice returns a device whose unused delegated space loops.
func loopingDevice(t *testing.T, dep *topo.Deployment) *topo.Device {
	t.Helper()
	for _, d := range dep.ISPs[0].Devices {
		if d.VulnLAN {
			return d
		}
	}
	t.Fatal("fixture lacks a LAN-vulnerable device")
	return nil
}

// TestCheckAddrProbesDistinct: the h and h+2 probes of one check differ
// in more than their hop limit (each hop limit has its own validator),
// so a reply quoting one probe never validates as the other's. With a
// shared validator the pair would be the same packet but for byte 7.
func TestCheckAddrProbesDistinct(t *testing.T) {
	dep, _ := fixture(t)
	rec := &recordingDriver{PacketDriver: xmap.NewSimDriver(dep.Engine, dep.Edge)}
	det := NewDetector(rec)
	dst := targetIn(loopingDevice(t, dep).CPE.Delegated(), []byte("x"))
	res, err := det.CheckAddr(dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictLoop || len(rec.sent) != 2 || len(rec.recvd) != 2 {
		t.Fatalf("verdict %s after %d probes and %d drains, want a loop from 2 and 2",
			res.Verdict, len(rec.sent), len(rec.recvd))
	}
	h, h2 := rec.sent[0], rec.sent[1]
	if h[7] != DefaultHopLimit || h2[7] != DefaultHopLimit+2 {
		t.Fatalf("hop limits %d, %d, want %d, %d", h[7], h2[7], DefaultHopLimit, DefaultHopLimit+2)
	}
	masked := func(p []byte) []byte { c := slices.Clone(p); c[7] = 0; return c }
	if bytes.Equal(masked(h), masked(h2)) {
		t.Fatalf("the h and h+2 probes differ only in the hop limit:\n% x", h)
	}

	classify := func(x *xmap.EchoExchange, raw []byte) bool {
		r, ok := x.Probe.ClassifyRaw(raw, x.Validate)
		return ok && r.ProbeDst == dst && r.Kind == xmap.KindTimeExceeded
	}
	for i, pair := range []struct {
		own, other *xmap.EchoExchange
	}{{det.first, det.confirm}, {det.confirm, det.first}} {
		accepted := 0
		for _, raw := range rec.recvd[i] {
			if !classify(pair.own, raw) {
				continue
			}
			accepted++
			if classify(pair.other, raw) {
				t.Errorf("probe %d's Time Exceeded also validates for the other hop limit", i)
			}
		}
		if accepted == 0 {
			t.Errorf("probe %d drew no Time Exceeded its own classifier accepts", i)
		}
	}
}

// packetOnly hides every method of its driver but PacketDriver's, the
// shape of a wrapper that counts or times Send and Recv.
type packetOnly struct{ xmap.PacketDriver }

// TestCheckAddrAllocs: a warm detector over SimDriver allocates nothing,
// directly or behind a wrapper that forwards only Send and Recv. It
// builds and classifies in place, its exchanges drain through Recv, and
// each Recv hands the previous drain's buffers back to the engine, which
// builds the next replies in them.
func TestCheckAddrAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	dep, _ := fixture(t)
	var safe *topo.Device
	for _, d := range dep.ISPs[0].Devices {
		if !d.Vulnerable() && d.CPE != nil && d.CPE.Delegated().Bits() > 0 {
			safe = d
			break
		}
	}
	if safe == nil {
		t.Fatal("fixture lacks a healthy CPE")
	}
	sim := xmap.NewSimDriver(dep.Engine, dep.Edge)
	for _, drv := range []struct {
		name string
		det  *Detector
	}{
		{"sim", NewDetector(sim)},
		{"send/recv only", NewDetector(packetOnly{sim})},
	} {
		for _, tc := range []struct {
			name string
			dst  ipv6.Addr
			want Verdict
		}{
			{"unreachable", targetIn(safe.CPE.Delegated(), []byte("x")), VerdictUnreachable},
			{"loop", targetIn(loopingDevice(t, dep).CPE.Delegated(), []byte("x")), VerdictLoop},
		} {
			var got Verdict
			allocs := testing.AllocsPerRun(200, func() {
				res, err := drv.det.CheckAddr(tc.dst)
				if err != nil {
					t.Fatal(err)
				}
				got = res.Verdict
			})
			if got != tc.want {
				t.Fatalf("%s, %s: verdict %s, want %s", drv.name, tc.name, got, tc.want)
			}
			if allocs != 0 {
				t.Errorf("%s, %s: CheckAddr allocates %.1f times, want 0", drv.name, tc.name, allocs)
			}
		}
	}
}

// TestTargetInMacAllocFree: the sweep's per-target address derivation
// allocates nothing with its hoisted HMAC and buffers, and hashes the
// same bytes as crypto/hmac over the prefix address, so the targets are
// the ones targetIn derives.
func TestTargetInMacAllocFree(t *testing.T) {
	subs := []ipv6.Prefix{
		ipv6.MustParsePrefix("2001:db8:4321:8760::/60"),
		ipv6.MustParsePrefix("2001:db8:1234:5678::/64"),
		ipv6.MustParsePrefix("2001:db8::/32"),
	}
	seed := []byte("loop-seed")
	mac := hmac.New(sha256.New, seed)
	in := make([]byte, 16)
	var sum [sha256.Size]byte
	for _, sub := range subs {
		ref := hmac.New(sha256.New, seed)
		b := sub.Addr().Bytes()
		ref.Write(b[:])
		d := ref.Sum(nil)
		want := ipv6.AddrFromBytes(d[:16])
		for i, p := range sub.Addr().Bytes() { // keep the prefix bits, host bits from the digest
			bit := sub.Bits() - 8*i
			mask := byte(0)
			switch {
			case bit >= 8:
				mask = 0xff
			case bit > 0:
				mask = 0xff << (8 - bit)
			}
			want = setByte(want, i, p&mask|want.Bytes()[i]&^mask)
		}
		if got := targetInMac(sub, mac, in, sum[:0]); got != want {
			t.Errorf("%s: targetInMac = %s, want %s", sub, got, want)
		}
		if got := targetIn(sub, seed); got != want {
			t.Errorf("%s: targetIn = %s, want %s", sub, got, want)
		}
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := testing.AllocsPerRun(200, func() {
		targetInMac(subs[0], mac, in, sum[:0])
	})
	if allocs != 0 {
		t.Errorf("targetInMac allocates %.1f times per target, want 0", allocs)
	}
}

// setByte returns a with byte i replaced by v.
func setByte(a ipv6.Addr, i int, v byte) ipv6.Addr {
	b := a.Bytes()
	b[i] = v
	return ipv6.AddrFromBytes(b[:])
}
