package xmap

import (
	"bytes"
	"fmt"
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
	const header = 4 + 32 + 4 + 4 + 4 // magic, digest, shard count, two list counts
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
		"version up": append([]byte{0x58, 0x43, 0x50, 0x04}, good[4:]...),
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
	// Version 1 and 2 files are refused by name, whatever follows the
	// magic — never half-read, never misreported as truncated.
	for _, v := range []byte{1, 2} {
		for _, tail := range [][]byte{good[4:], nil} {
			_, err := UnmarshalCheckpoint(append([]byte{0x58, 0x43, 0x50, v}, tail...))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported checkpoint version %d", v)) ||
				!strings.Contains(err.Error(), "restart the scan") {
				t.Errorf("v%d checkpoint: err = %v, want an unsupported-version error", v, err)
			}
		}
	}
	// Absurd counts must not allocate: claim 2^32-1 responders.
	huge := append([]byte{}, good[:40]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff)
	if _, err := UnmarshalCheckpoint(huge); err == nil {
		t.Error("absurd responder count accepted")
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
