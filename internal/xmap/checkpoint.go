package xmap

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// handler — the scan's only persisted seen-set, from which a resumed
// run's seen-set is seeded — and every shard's state.
type Checkpoint struct {
	Digest     [32]byte
	Shards     int
	Responders []ipv6.Addr
	States     []ShardState
}

// ConfigDigest fingerprints the scan parameters a checkpoint depends on:
// window, seed, probe module, shard count (the run's workers) and, for
// one slice of a distributed scan (Config.Shards > 1), which slice.
// Operational knobs (rate, drain cadence, retry depth, dedup
// implementation) may change across a resume; these may not, or the
// permutation and validation values would silently mismatch. A run of
// more than one worker also tags how its workers split the slice (by
// window chunk, see ScanParallel): its states' cursors mean nothing
// under another split. Without a slice, a run of one has the digest
// files written before slices existed carry.
func ConfigDigest(cfg Config, shards int) [32]byte {
	return configDigest(cfg, shards, shards > 1)
}

// configDigest is ConfigDigest, with the window-chunk tag when chunked.
// Without it, a digest of more than one worker is the one builds that
// gave worker i the cycle positions ≡ i (mod n) wrote.
func configDigest(cfg Config, shards int, chunked bool) [32]byte {
	if shards <= 0 {
		shards = 1
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
	h.Write([]byte(probeOrDefault(cfg.Probe).Name()))
	if cfg.Shards > 1 {
		var slice [8]byte
		binary.BigEndian.PutUint32(slice[0:], uint32(cfg.Shards))
		binary.BigEndian.PutUint32(slice[4:], uint32(cfg.ShardIndex))
		h.Write(slice[:])
	}
	if chunked {
		h.Write([]byte("split:window-chunk"))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Checkpoint file format: a 40-byte header — magic+version, digest,
// shard count — then a log of records, each framed as
//
//	len u32 | crc32c(payload) u32 | payload
//
// A payload holds the responders new since the previous record (a count,
// then 16 bytes each) and every shard's state (a count, then per state
// its index, done flag, cursor, every Stats counter in statsFields
// order, Elapsed, and the retry ring). A checkpoint is the union of its
// records' responders with the last record's states: the file is
// O(unique responders), with no term in the window size. Marshal emits
// a one-record log (a snapshot); a running scan appends one
// record per update and compacts by replacing the file with a snapshot.
// Every variable-length field is bounded against the remaining input
// before allocation, so a corrupt file errors instead of exhausting
// memory. The magic's low byte is the version; files of another version
// (1: fewer counters, 2: a serialized dedup filter per shard, 3: one
// unframed snapshot) are refused, never half-read.
const (
	checkpointMagic  = 0x58435004 // "XCP" 0x04
	frameSize        = 4 + 4
	maxStateBlobSize = 1 << 31
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func appendHeader(dst []byte, digest *[32]byte, shards int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, checkpointMagic)
	dst = append(dst, digest[:]...)
	return binary.BigEndian.AppendUint32(dst, uint32(shards))
}

// appendRecord frames one log record listing resp and states, and
// returns the extended buffer and the byte length of its state list.
func appendRecord(dst []byte, resp []ipv6.Addr, states []ShardState) ([]byte, int) {
	start := len(dst)
	dst = append(dst, make([]byte, frameSize)...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp)))
	for _, a := range resp {
		b := a.Bytes()
		dst = append(dst, b[:]...)
	}
	mid := len(dst)
	dst = appendStates(dst, states)
	payload := dst[start+frameSize:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, len(dst) - mid
}

func appendStats(dst []byte, s *Stats) []byte {
	for _, f := range statsFields {
		dst = binary.BigEndian.AppendUint64(dst, *f.field(s))
	}
	return binary.BigEndian.AppendUint64(dst, uint64(s.Elapsed))
}

func appendStates(dst []byte, states []ShardState) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(states)))
	for i := range states {
		st := &states[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(st.Shard))
		if st.Done {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.BigEndian.AppendUint64(dst, st.Consumed.Hi)
		dst = binary.BigEndian.AppendUint64(dst, st.Consumed.Lo)
		dst = appendStats(dst, &st.Stats)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(st.Retry)))
		dst = append(dst, st.Retry...)
	}
	return dst
}

// Marshal serializes the checkpoint as a one-record log.
func (c *Checkpoint) Marshal() []byte {
	out, _ := appendRecord(appendHeader(nil, &c.Digest, c.Shards), c.Responders, c.States)
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

// UnmarshalCheckpoint decodes a checkpoint log, rejecting malformed,
// truncated or version-skewed input with an error (never a panic).
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	return decodeLog(data, false)
}

// decodeLog decodes the header and every record. With tornTail, a final
// record cut short by the end of data — its frame runs past it, or ends
// exactly at it with a bad CRC, as an interrupted append leaves it — is
// dropped instead of refused; a bad record with bytes after it is still
// corruption.
func decodeLog(data []byte, tornTail bool) (*Checkpoint, error) {
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
	if r.err != nil {
		return nil, r.err
	}
	if c.Shards < 1 || c.Shards > 1<<16 {
		return nil, fmt.Errorf("xmap: checkpoint: shard count %d out of range", c.Shards)
	}
	records := 0
	for len(r.data) > 0 {
		n := -1
		if len(r.data) >= frameSize {
			n = int(binary.BigEndian.Uint32(r.data))
		}
		if n < 0 || n > len(r.data)-frameSize {
			if tornTail {
				break
			}
			return nil, fmt.Errorf("xmap: checkpoint: record %d truncated: %d bytes left", records, len(r.data))
		}
		sum := binary.BigEndian.Uint32(r.data[4:])
		payload := r.data[frameSize : frameSize+n]
		r.data = r.data[frameSize+n:]
		if crc32.Checksum(payload, castagnoli) != sum {
			if tornTail && len(r.data) == 0 {
				break
			}
			return nil, fmt.Errorf("xmap: checkpoint: record %d fails its CRC", records)
		}
		if err := c.decodeRecord(payload); err != nil {
			return nil, fmt.Errorf("xmap: checkpoint: record %d: %w", records, err)
		}
		records++
	}
	if records == 0 {
		return nil, fmt.Errorf("xmap: checkpoint: no complete record after the header")
	}
	return c, nil
}

// decodeRecord appends one record's responders to c and replaces c's
// states with the record's.
func (c *Checkpoint) decodeRecord(payload []byte) error {
	r := &ckptReader{data: payload}
	nResp := r.u32()
	if r.err == nil && uint64(nResp)*16 > uint64(len(r.data)) {
		return fmt.Errorf("%d responders exceed remaining %d bytes", nResp, len(r.data))
	}
	for i := uint32(0); i < nResp && r.err == nil; i++ {
		c.Responders = append(c.Responders, ipv6.AddrFromBytes(r.take(16)))
	}
	nStates := r.u32()
	if r.err == nil && int(nStates) > c.Shards {
		return fmt.Errorf("%d states for %d shards", nStates, c.Shards)
	}
	c.States = c.States[:0]
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
			return fmt.Errorf("state for shard %d of %d", st.Shard, c.Shards)
		}
		if seen[st.Shard] {
			return fmt.Errorf("duplicate state for shard %d", st.Shard)
		}
		seen[st.Shard] = true
		c.States = append(c.States, st)
	}
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.data))
	}
	return nil
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

// WriteFile atomically persists the checkpoint as a one-record log:
// the bytes land in a temporary file in the same directory and replace
// path with a rename, so a crash mid-write leaves the previous
// checkpoint intact.
func (c *Checkpoint) WriteFile(path string) error {
	return writeFileAtomic(path, c.Marshal())
}

func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("xmap: checkpoint write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
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

// LoadCheckpoint reads and decodes a checkpoint file. Unlike
// UnmarshalCheckpoint it tolerates a torn tail: a last record that an
// interrupted append left incomplete is dropped, and the checkpoint is
// the one the records before it describe.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeLog(data, true)
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
		if shards > 1 && c.Digest == configDigest(cfg, shards, false) {
			return fmt.Errorf("xmap: checkpoint of %d workers was written under the cycle-position worker split of older builds; this build splits by window chunk, so its cursors do not carry over: restart the scan", shards)
		}
		return fmt.Errorf("xmap: checkpoint config digest mismatch (window, seed, probe, shards or slice changed)")
	}
	return nil
}
