package xmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ipv6"
	"repro/internal/uint128"
)

func sampleCheckpoint() *Checkpoint {
	c := &Checkpoint{
		Shards: 3,
		Responders: []ipv6.Addr{
			ipv6.MustParseAddr("2001:db8::1"),
			ipv6.MustParseAddr("2001:db8:0:42:a:b:c:d"),
		},
	}
	for i := range c.Digest {
		c.Digest[i] = byte(i * 7)
	}
	c.States = []ShardState{
		{
			Shard:    0,
			Consumed: uint128.New(0, 1234),
			Stats: Stats{
				Targets: 1234, Sent: 1300, Received: 40, Unique: 6,
				Retried: 66, RetryDropped: 1, RateDown: 2,
				AliasDetected: 2, AliasCooldown: 6, AliasBlocked: 1, Quarantined: 9, Shed: 4,
				Elapsed: 3 * time.Second,
			},
			Retry: []byte{0, 0, 0, 0},
		},
		{Shard: 2, Done: true, Consumed: uint128.New(1, 0)},
	}
	return c
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	data := c.Marshal()
	got, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != c.Digest || got.Shards != c.Shards {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Responders) != 2 || got.Responders[1] != c.Responders[1] {
		t.Fatalf("responders mismatch: %v", got.Responders)
	}
	if len(got.States) != 2 {
		t.Fatalf("states mismatch: %d", len(got.States))
	}
	for i := range c.States {
		w, g := c.States[i], got.States[i]
		if g.Shard != w.Shard || g.Done != w.Done || g.Consumed != w.Consumed ||
			g.Stats != w.Stats || !bytes.Equal(g.Retry, w.Retry) {
			t.Fatalf("state %d: got %+v, want %+v", i, g, w)
		}
	}
	if !bytes.Equal(got.Marshal(), data) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

// TestCheckpointStatsRoundTripProperty: any Stats survives
// Marshal→Unmarshal field for field — every counter in the table and
// Elapsed, so a counter added to Stats cannot be dropped by the codec.
func TestCheckpointStatsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		var st Stats
		for _, f := range statsFields {
			*f.field(&st) = rng.Uint64() >> uint(rng.Intn(64))
		}
		st.Elapsed = time.Duration(rng.Int63())
		c := &Checkpoint{Shards: 1, States: []ShardState{{Stats: st}}}
		got, err := UnmarshalCheckpoint(c.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got.States[0].Stats != st {
			t.Fatalf("stats changed across the checkpoint:\n got %+v\nwant %+v", got.States[0].Stats, st)
		}
	}
}

// TestCheckpointSizeLaw: a marshaled checkpoint is a fixed header, 16
// bytes per responder and, per shard, a fixed state plus its retry ring
// — nothing that grows with the window.
func TestCheckpointSizeLaw(t *testing.T) {
	const header = 4 + 32 + 4 + 8 + 4 + 4 // magic, digest, shard count, record frame, two list counts
	state := 4 + 1 + 16 + 8*(len(statsFields)+1) + 4
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 100; i++ {
		c := &Checkpoint{Shards: 1 + rng.Intn(8)}
		c.Responders = make([]ipv6.Addr, rng.Intn(500))
		want := header + 16*len(c.Responders)
		for sh := 0; sh < c.Shards; sh++ {
			st := ShardState{Shard: sh, Retry: make([]byte, rng.Intn(300))}
			st.Stats.Targets = rng.Uint64()
			c.States = append(c.States, st)
			want += state + len(st.Retry)
		}
		if got := len(c.Marshal()); got != want {
			t.Fatalf("%d responders, %d shards: %d bytes, want %d", len(c.Responders), c.Shards, got, want)
		}
	}
}

func TestUnmarshalCheckpointRejectsMalformed(t *testing.T) {
	good := sampleCheckpoint().Marshal()
	cases := map[string][]byte{
		"empty":      {},
		"header":     good[:10],
		"bad magic":  append([]byte{0xde, 0xad, 0xbe, 0xef}, good[4:]...),
		"version up": append([]byte{0x58, 0x43, 0x50, 0x05}, good[4:]...),
		"trailing":   append(append([]byte{}, good...), 1, 2, 3),
	}
	// Every truncation point must error, never panic.
	for i := 0; i < len(good); i += 7 {
		if _, err := UnmarshalCheckpoint(good[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	for name, data := range cases {
		if _, err := UnmarshalCheckpoint(data); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
	// Version 1, 2 and 3 files are refused by name, whatever follows the
	// magic — never half-read, never misreported as truncated.
	for _, v := range []byte{1, 2, 3} {
		for _, tail := range [][]byte{good[4:], nil} {
			_, err := UnmarshalCheckpoint(append([]byte{0x58, 0x43, 0x50, v}, tail...))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported checkpoint version %d", v)) ||
				!strings.Contains(err.Error(), "restart the scan") {
				t.Errorf("v%d checkpoint: err = %v, want an unsupported-version error", v, err)
			}
		}
	}
	// Absurd counts must not allocate: claim a 2^32-1 byte record, and
	// 2^32-1 responders inside a record whose CRC holds.
	huge := append([]byte{}, good[:40]...) // the header
	huge = append(huge, 0xff, 0xff, 0xff, 0xff)
	if _, err := UnmarshalCheckpoint(huge); err == nil {
		t.Error("absurd record length accepted")
	}
	payload := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	huge = binary.BigEndian.AppendUint32(append([]byte{}, good[:40]...), uint32(len(payload)))
	huge = binary.BigEndian.AppendUint32(huge, crc32.Checksum(payload, castagnoli))
	if _, err := UnmarshalCheckpoint(append(huge, payload...)); err == nil {
		t.Error("absurd responder count accepted")
	}
	// A header alone lists nothing: no complete record, no checkpoint.
	if _, err := UnmarshalCheckpoint(good[:40]); err == nil {
		t.Error("record-less log accepted")
	}
	// Duplicate shard states.
	dup := sampleCheckpoint()
	dup.States[1].Shard = 0
	if _, err := UnmarshalCheckpoint(dup.Marshal()); err == nil {
		t.Error("duplicate shard state accepted")
	}
	// State for a shard outside the shard count.
	oob := sampleCheckpoint()
	oob.States[1].Shard = 3
	if _, err := UnmarshalCheckpoint(oob.Marshal()); err == nil {
		t.Error("out-of-range shard state accepted")
	}
}

func TestCheckpointFileAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scan.ckpt")
	c := sampleCheckpoint()
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second version; the file must read back as one
	// complete checkpoint and no temp litter may remain.
	c.States[0].Stats.Targets = 9999
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.States[0].Stats.Targets != 9999 {
		t.Fatalf("stale checkpoint read back: %+v", got.States[0].Stats)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestConfigDigestSensitivity(t *testing.T) {
	f := buildFixture(t)
	base := Config{Window: window(t, f), Seed: []byte("digest")}
	d0 := ConfigDigest(base, 4)
	if d0 != ConfigDigest(base, 4) {
		t.Fatal("digest is not deterministic")
	}
	// Operational knobs may change freely across a resume.
	ops := base
	ops.Rate = 1000
	ops.MaxTargets = 7
	ops.Retries = 3
	ops.DrainEvery = 8
	ops.DedupExact = true // the file holds no dedup state to mismatch
	if ConfigDigest(ops, 4) != d0 {
		t.Error("operational knobs changed the digest")
	}
	// Identity parameters must not.
	seed := base
	seed.Seed = []byte("other")
	narrow := base
	narrow.Window.To--
	probe := base
	probe.Probe = &TCPSynProbe{Port: 80}
	for name, d := range map[string][32]byte{
		"seed":   ConfigDigest(seed, 4),
		"shards": ConfigDigest(base, 8),
		"window": ConfigDigest(narrow, 4),
		"probe":  ConfigDigest(probe, 4),
	} {
		if d == d0 {
			t.Errorf("%s change kept the digest", name)
		}
	}
}

// TestConfigDigestSlice: without a slice (Shards <= 1) a run of one
// keeps the digest files written before slices existed carry, so they
// still resume; a run of two is tagged with its window-chunk split, and
// its untagged digest stays the one older builds, which split workers by
// cycle position, wrote. Each slice of a distributed scan has its own.
func TestConfigDigestSlice(t *testing.T) {
	w, err := ipv6.NewWindow(ipv6.MustParsePrefix("2001:db8::/48"), 60)
	if err != nil {
		t.Fatal(err)
	}
	const (
		pinned     = "760d5d3c012a6fddbb9a245dba63d9c4e53469af43253056332512e980f36fee" // two workers, cycle-position split
		pinnedLone = "6080a6629a596de5cbf2d7d6aed461c30de6d6c34ebc135f5119cdd24bbd99d4" // one worker
	)
	digests := map[[32]byte]string{}
	for _, tc := range []struct {
		name          string
		shards, index int
	}{
		{"unset", 0, 0}, {"one", 1, 0}, {"slice 0/2", 2, 0}, {"slice 1/2", 2, 1}, {"slice 0/3", 3, 0},
	} {
		cfg := Config{Window: w, Seed: []byte("digest-pin"), Shards: tc.shards, ShardIndex: tc.index}
		d := ConfigDigest(cfg, 2)
		if tc.shards <= 1 {
			if got := fmt.Sprintf("%x", configDigest(cfg, 2, false)); got != pinned {
				t.Errorf("%s: untagged digest %s, want the pinned %s", tc.name, got, pinned)
			}
			if got := fmt.Sprintf("%x", ConfigDigest(cfg, 1)); got != pinnedLone {
				t.Errorf("%s: one worker's digest %s, want the pinned %s", tc.name, got, pinnedLone)
			}
			if fmt.Sprintf("%x", d) == pinned {
				t.Errorf("%s: two workers' digest is the cycle-position split's", tc.name)
			}
			continue
		}
		if prev, dup := digests[d]; dup {
			t.Errorf("%s and %s share a digest", tc.name, prev)
		}
		if fmt.Sprintf("%x", d) == pinned {
			t.Errorf("%s: a slice's digest equals the whole scan's", tc.name)
		}
		digests[d] = tc.name
	}
}

func TestCheckpointVerify(t *testing.T) {
	f := buildFixture(t)
	cfg := Config{Window: window(t, f), Seed: []byte("verify")}
	c := &Checkpoint{Digest: ConfigDigest(cfg, 2), Shards: 2}
	if err := c.Verify(cfg, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(cfg, 4); err == nil {
		t.Error("shard-count skew accepted")
	}
	cfg.Seed = []byte("different")
	if err := c.Verify(cfg, 2); err == nil {
		t.Error("digest mismatch accepted")
	}
}

// FuzzUnmarshalCheckpoint: the decoder must never panic, and anything it
// accepts must re-marshal to a decodable equivalent.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	good := sampleCheckpoint().Marshal()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0x58, 0x43, 0x50, 0x03})
	f.Add(append([]byte{0x58, 0x43, 0x50, 0x02}, good[4:]...)) // v2 magic
	f.Add(good[:len(good)-5*8-9])                              // cut inside the stats block
	f.Add((&Checkpoint{Shards: 1, States: []ShardState{{Done: true}}}).Marshal())
	multi, _ := sampleLog()
	f.Add(multi)
	f.Add(multi[:len(multi)-11]) // torn inside the last record
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		again, err := UnmarshalCheckpoint(c.Marshal())
		if err != nil {
			t.Fatalf("accepted checkpoint did not re-decode: %v", err)
		}
		if !bytes.Equal(again.Marshal(), c.Marshal()) {
			t.Fatal("re-marshal is not stable")
		}
	})
}

// sampleLog is sampleCheckpoint as a three-record log, as a running
// scan appends it: each record lists the responders new since the one
// before and every shard state. ends holds each record's end offset.
func sampleLog() (data []byte, ends []int) {
	c := sampleCheckpoint()
	extra := []ipv6.Addr{ipv6.MustParseAddr("2001:db8::77"), ipv6.MustParseAddr("2001:db8::78")}
	data = appendHeader(nil, &c.Digest, c.Shards)
	for i, resp := range [][]ipv6.Addr{c.Responders, extra[:1], extra[1:]} {
		states := append([]ShardState(nil), c.States...)
		states[0].Stats.Targets += uint64(100 * i)
		if i == 2 {
			states = append(states, ShardState{Shard: 1, Consumed: uint128.New(0, 5)})
		}
		data, _ = appendRecord(data, resp, states)
		ends = append(ends, len(data))
	}
	return data, ends
}

// loadBytes writes data to a file and loads it back with LoadCheckpoint.
func loadBytes(t *testing.T, data []byte) (*Checkpoint, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadCheckpoint(path)
}

// TestCheckpointLogTornTail: an append interrupted at any byte leaves a
// file LoadCheckpoint reads as exactly the record before it — its
// responders and states — while UnmarshalCheckpoint still refuses the
// torn bytes. A CRC failure before the last record is corruption.
func TestCheckpointLogTornTail(t *testing.T) {
	data, ends := sampleLog()
	want := func(records int) *Checkpoint {
		c, err := UnmarshalCheckpoint(data[:ends[records-1]])
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	same := func(got, want *Checkpoint) bool {
		if got == nil || got.Shards != want.Shards || got.Digest != want.Digest ||
			len(got.Responders) != len(want.Responders) || len(got.States) != len(want.States) {
			return false
		}
		return bytes.Equal(got.Marshal(), want.Marshal())
	}
	full, prev := want(3), want(2)
	if len(full.Responders) != 4 || len(prev.Responders) != 3 || len(full.States) != 3 || len(prev.States) != 2 {
		t.Fatalf("sample log decodes to %d/%d responders, %d/%d states", len(full.Responders), len(prev.Responders), len(full.States), len(prev.States))
	}
	if got, err := loadBytes(t, data); err != nil || !same(got, full) {
		t.Fatalf("whole log: %+v, %v", got, err)
	}
	for cut := ends[1]; cut < ends[2]; cut++ {
		got, err := loadBytes(t, data[:cut])
		if err != nil || !same(got, prev) {
			t.Fatalf("torn at %d of %d: %+v, %v; want the previous record's checkpoint", cut, ends[2], got, err)
		}
		if cut > ends[1] {
			if _, err := UnmarshalCheckpoint(data[:cut]); err == nil {
				t.Fatalf("UnmarshalCheckpoint accepted a log torn at %d", cut)
			}
		}
	}
	// A last record that reaches EOF with a bad CRC is a torn append too.
	flipped := append([]byte{}, data...)
	flipped[len(flipped)-1] ^= 1
	if got, err := loadBytes(t, flipped); err != nil || !same(got, prev) {
		t.Errorf("bad CRC on the last record: %+v, %v; want it dropped", got, err)
	}
	if _, err := UnmarshalCheckpoint(flipped); err == nil {
		t.Error("UnmarshalCheckpoint accepted a bad CRC")
	}
	// The same flip in a middle record has bytes after it: corruption.
	flipped = append([]byte{}, data...)
	flipped[ends[1]-1] ^= 1
	if _, err := loadBytes(t, flipped); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("bad CRC on a middle record: err = %v, want a CRC error", err)
	}
}

// TestCheckpointAppendAllocs: once the log is open, an update that
// appends a record — a new responder and every shard state — allocates
// nothing; the encoding buffer and the responder order are reused.
func TestCheckpointAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	seen := &seenSet{set: make(mapDedup, 1024), order: make([]ipv6.Addr, 0, 1024), logOrder: true}
	c := &checkpointer{
		path: filepath.Join(t.TempDir(), "scan.ckpt"),
		ck:   Checkpoint{Shards: 2},
		seen: seen,
	}
	st := sampleCheckpoint().States[0]
	c.update(st) // the run's first write: a snapshot opens the log
	if c.err != nil || c.f == nil {
		t.Fatalf("first write: %v", c.err)
	}
	defer c.close()
	next := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		next++
		seen.offer(&Response{Responder: ipv6.AddrFrom128(uint128.New(0x20010db8<<32, next))}, nil)
		st.Shard = int(next % 2)
		st.Stats.Targets = next
		c.superseded = 0 // stay on the append path
		c.update(st)
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	if allocs != 0 {
		t.Errorf("steady-state append allocated %.1f times per update, want 0", allocs)
	}
	got, err := LoadCheckpoint(c.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Responders) != int(next) || len(got.States) != 2 {
		t.Errorf("log lists %d responders and %d states after %d appends", len(got.Responders), len(got.States), next)
	}
}
