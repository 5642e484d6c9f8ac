package xmap

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ipv6"
	"repro/internal/uint128"
)

// ShardState is what only one scanner knows of its resumable position:
// the permutation cursor, cumulative statistics and the serialized retry
// ring. A scanner emits it through Config.OnCheckpoint and accepts it
// back inside a Checkpoint through Config.ResumeFrom.
type ShardState struct {
	Shard    int
	Done     bool // the shard finished its permutation walk
	Consumed uint128.Uint128
	Stats    Stats
	Retry    []byte
}

// Checkpoint is a whole scan's crash-recovery state: a digest binding it
// to the scan configuration, the responders already reported to the
// handler — the scan's only persisted seen-set, from which every shard's
// dedup filter is re-seeded — and every shard's state.
type Checkpoint struct {
	Digest     [32]byte
	Shards     int
	Responders []ipv6.Addr
	States     []ShardState
}

// ConfigDigest fingerprints the scan parameters a checkpoint depends on:
// window, seed, probe module and shard count. Operational knobs (rate,
// drain cadence, retry depth, dedup implementation) may change across a
// resume; these may not, or the permutation and validation values would
// silently mismatch.
func ConfigDigest(cfg Config, shards int) [32]byte {
	if shards <= 0 {
		shards = 1
	}
	probe := cfg.Probe
	if probe == nil {
		probe = &ICMPEchoProbe{}
	}
	h := sha256.New()
	h.Write([]byte("xmap-checkpoint-v1\x00"))
	base := cfg.Window.Base.Addr().Bytes()
	h.Write(base[:])
	var meta [12]byte
	binary.BigEndian.PutUint32(meta[0:], uint32(cfg.Window.Base.Bits()))
	binary.BigEndian.PutUint32(meta[4:], uint32(cfg.Window.To))
	binary.BigEndian.PutUint32(meta[8:], uint32(shards))
	h.Write(meta[:])
	h.Write(seedOrDefault(cfg.Seed))
	h.Write([]byte{0})
	h.Write([]byte(probe.Name()))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Checkpoint wire format: magic+version, digest, shard count, responder
// list, shard states. Every variable-length field is bounded against the
// remaining input before allocation, so a corrupt file errors instead of
// exhausting memory. A shard state is its index, done flag, cursor, every
// Stats counter in statsFields order, Elapsed, and the retry ring: the
// file is O(unique responders), with no term in the window size. The
// magic's low byte is the version; files of another version (1: fewer
// counters, 2: a serialized dedup filter per shard) are refused, never
// half-read.
const (
	checkpointMagic  = 0x58435003 // "XCP" 0x03
	maxStateBlobSize = 1 << 31
)

func appendStats(dst []byte, s *Stats) []byte {
	for _, f := range statsFields {
		dst = binary.BigEndian.AppendUint64(dst, *f.field(s))
	}
	return binary.BigEndian.AppendUint64(dst, uint64(s.Elapsed))
}

// Marshal serializes the checkpoint.
func (c *Checkpoint) Marshal() []byte {
	out := binary.BigEndian.AppendUint32(nil, checkpointMagic)
	out = append(out, c.Digest[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(c.Shards))
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.Responders)))
	for _, a := range c.Responders {
		b := a.Bytes()
		out = append(out, b[:]...)
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.States)))
	for i := range c.States {
		st := &c.States[i]
		out = binary.BigEndian.AppendUint32(out, uint32(st.Shard))
		if st.Done {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = binary.BigEndian.AppendUint64(out, st.Consumed.Hi)
		out = binary.BigEndian.AppendUint64(out, st.Consumed.Lo)
		out = appendStats(out, &st.Stats)
		out = binary.BigEndian.AppendUint32(out, uint32(len(st.Retry)))
		out = append(out, st.Retry...)
	}
	return out
}

// ckptReader is a bounds-checked cursor over checkpoint bytes.
type ckptReader struct {
	data []byte
	err  error
}

func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("xmap: checkpoint: "+format, args...)
	}
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data) {
		r.fail("truncated: need %d bytes, have %d", n, len(r.data))
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

func (r *ckptReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *ckptReader) blob(what string) []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > maxStateBlobSize || int(n) > len(r.data) {
		r.fail("%s blob of %d bytes exceeds remaining %d", what, n, len(r.data))
		return nil
	}
	return append([]byte(nil), r.take(int(n))...)
}

func (r *ckptReader) stats() (s Stats) {
	for _, f := range statsFields {
		*f.field(&s) = r.u64()
	}
	s.Elapsed = time.Duration(r.u64())
	return s
}

// UnmarshalCheckpoint decodes a checkpoint, rejecting malformed,
// truncated or version-skewed input with an error (never a panic).
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	r := &ckptReader{data: data}
	switch magic := r.u32(); {
	case r.err != nil:
	case magic != checkpointMagic && magic>>8 == checkpointMagic>>8:
		return nil, fmt.Errorf("xmap: checkpoint: unsupported checkpoint version %d (this build reads version %d; restart the scan)",
			magic&0xff, checkpointMagic&0xff)
	case magic != checkpointMagic:
		return nil, fmt.Errorf("xmap: checkpoint: bad magic/version %#08x", magic)
	}
	c := &Checkpoint{}
	copy(c.Digest[:], r.take(32))
	c.Shards = int(r.u32())
	if r.err == nil && (c.Shards < 1 || c.Shards > 1<<16) {
		return nil, fmt.Errorf("xmap: checkpoint: shard count %d out of range", c.Shards)
	}
	nResp := r.u32()
	if r.err == nil && uint64(nResp)*16 > uint64(len(r.data)) {
		return nil, fmt.Errorf("xmap: checkpoint: %d responders exceed remaining %d bytes", nResp, len(r.data))
	}
	for i := uint32(0); i < nResp && r.err == nil; i++ {
		c.Responders = append(c.Responders, ipv6.AddrFromBytes(r.take(16)))
	}
	nStates := r.u32()
	if r.err == nil && int(nStates) > c.Shards {
		return nil, fmt.Errorf("xmap: checkpoint: %d states for %d shards", nStates, c.Shards)
	}
	seen := map[int]bool{}
	for i := uint32(0); i < nStates && r.err == nil; i++ {
		st := ShardState{Shard: int(r.u32())}
		st.Done = r.u8() != 0
		st.Consumed = uint128.New(r.u64(), r.u64())
		st.Stats = r.stats()
		st.Retry = r.blob("retry")
		if r.err != nil {
			break
		}
		if st.Shard < 0 || st.Shard >= c.Shards {
			return nil, fmt.Errorf("xmap: checkpoint: state for shard %d of %d", st.Shard, c.Shards)
		}
		if seen[st.Shard] {
			return nil, fmt.Errorf("xmap: checkpoint: duplicate state for shard %d", st.Shard)
		}
		seen[st.Shard] = true
		c.States = append(c.States, st)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("xmap: checkpoint: %d trailing bytes", len(r.data))
	}
	return c, nil
}

// StateFor returns the state recorded for a shard index, if present.
func (c *Checkpoint) StateFor(shard int) (*ShardState, bool) {
	for i := range c.States {
		if c.States[i].Shard == shard {
			return &c.States[i], true
		}
	}
	return nil, false
}

// WriteFile atomically persists the checkpoint: the bytes land in a
// temporary file in the same directory and replace path with a rename,
// so a crash mid-write leaves the previous checkpoint intact.
func (c *Checkpoint) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("xmap: checkpoint write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(c.Marshal()); err != nil {
		tmp.Close()
		return fmt.Errorf("xmap: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("xmap: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("xmap: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("xmap: checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and decodes a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalCheckpoint(data)
}

// Verify checks a checkpoint against the scan configuration it is about
// to resume.
func (c *Checkpoint) Verify(cfg Config, shards int) error {
	if shards <= 0 {
		shards = 1
	}
	if c.Shards != shards {
		return fmt.Errorf("xmap: checkpoint taken with %d shards, resuming with %d", c.Shards, shards)
	}
	if want := ConfigDigest(cfg, shards); c.Digest != want {
		return fmt.Errorf("xmap: checkpoint config digest mismatch (window, seed, probe or shards changed)")
	}
	return nil
}
