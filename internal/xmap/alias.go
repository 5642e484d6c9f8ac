package xmap

import (
	"repro/internal/ipv6"
	"repro/internal/telemetry"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// Alias-detector parameters.
const (
	// aliasPrefixLen is the detect-prefix granularity (<= 64): one
	// detect-prefix per 16 window /64s, the aliased-delegation size the
	// periphery papers report most often.
	aliasPrefixLen = 60
	// cooldownProbes is j, the number of deterministic pseudo-random
	// re-probes sent into a suspicious prefix.
	cooldownProbes = 3
	// cooldownWindow is the cooldown length in drain windows before an
	// unconfirmed suspicious prefix is cleared.
	cooldownWindow = 4
	// aliasConfirm is the cooldown evidence needed to blocklist a
	// suspicious prefix.
	aliasConfirm = 2
	// aliasEchoThresh is the distinct self-echo targets, and
	// aliasQuarThresh the quarantined replies, that send a prefix into
	// cooldown.
	aliasEchoThresh = 2
	aliasQuarThresh = 3
)

// Alias-detector prefix states. A detect-prefix starts counting, moves
// to cooling when a saturation trigger fires, and resolves to blocked
// (folded into the runtime blocklist) or cleared (honest; never
// re-enters detection).
const (
	aliasCounting uint8 = iota
	aliasCooling
	aliasBlocked
	aliasCleared
)

// aliasEntry is one detect-prefix's state in the alias trie.
type aliasEntry struct {
	state uint8
	// selfEchoes counts distinct probed targets inside the prefix that
	// answered with an echo reply from the probed address itself — the
	// aliased-responder signature (honest scans probe pseudo-random
	// IIDs, which never self-answer).
	selfEchoes  uint8
	lastEchoDst ipv6.Addr
	// quarantined counts malformed/unvalidatable replies whose outer
	// source lies in the prefix.
	quarantined uint16
	// evidence accumulates cooldown-window confirmations.
	evidence uint8
	// deadline is the drain tick at which an undecided cooling prefix
	// resolves to cleared.
	deadline uint64
}

// aliasProbe tracks one outstanding cooldown probe.
type aliasProbe struct {
	key       uint64
	evidenced bool
}

// respCacheBits sizes the spoofed-source tracking table (slots = 1<<bits).
const respCacheBits = 9

// respSlot is one direct-mapped spoof-tracking entry; a zero addr marks
// the slot empty (a validated responder is never the unspecified
// address).
type respSlot struct {
	key  uint64 // responder /64 (upper 64 bits)
	addr ipv6.Addr
}

// aliasDetector is the 6Prob-style cooldown alias detector: a flat trie
// over fixed-length detect-prefixes counting hit density, with a
// cooldown re-probe window before any verdict. All state is reached
// through one pointer on the scanner, nil when defenses are off — the
// hot path then pays a single predictable branch per reply.
//
// Per-reply work is O(1) amortized: a last-responder cache absorbs the
// common same-responder run, the trie is consulted only for replies
// carrying a saturation signature or landing in a tracked prefix, and
// trie entries are created only by those signatures (an honest scan
// creates none).
type aliasDetector struct {
	trie map[uint64]*aliasEntry
	// resp64 records the first validated error responder seen per
	// responder /64: a second distinct responder in one /64 is the
	// spoofed-source signature (honest /64s hold at most one validated
	// responder). A fixed direct-mapped table, not a map: bounded memory
	// whatever the scan size, and a multiply-shift index instead of a map
	// probe on every new responder. A slot collision merely evicts
	// history — a spoof verdict still needs two distinct responders under
	// the SAME /64 key, so eviction can delay detection (the spoofer
	// re-triggers on its next reply burst) but never fake it.
	resp64      [1 << respCacheBits]respSlot
	outstanding map[ipv6.Addr]*aliasProbe
	pending     []ipv6.Addr
	cooling     []uint64
	blocked     []ipv6.Prefix
	ticks       uint64

	// last-responder cache: skips the resp64 map while one responder
	// (an ISP router answering unreachable for a whole block) streaks.
	lastResp     ipv6.Addr
	haveLastResp bool

	prf subPRF
}

// newAliasDetector builds a detector whose cooldown targets are keyed
// by the scan seed.
func newAliasDetector(seed []byte) *aliasDetector {
	return &aliasDetector{
		trie:        make(map[uint64]*aliasEntry),
		outstanding: make(map[ipv6.Addr]*aliasProbe),
		prf:         newSubPRF(append(append([]byte{}, seed...), "-alias-cooldown"...)),
	}
}

// keyOf maps an address to its detect-prefix key.
func (d *aliasDetector) keyOf(a ipv6.Addr) uint64 {
	return a.Uint128().Hi >> (64 - aliasPrefixLen)
}

// prefixOf inverts keyOf.
func (d *aliasDetector) prefixOf(key uint64) ipv6.Prefix {
	hi := key << (64 - aliasPrefixLen)
	p, _ := ipv6.NewPrefix(ipv6.AddrFrom128(uint128.New(hi, 0)), aliasPrefixLen)
	return p
}

// entry returns (creating if needed) the trie entry for a key.
func (d *aliasDetector) entry(key uint64) *aliasEntry {
	e := d.trie[key]
	if e == nil {
		e = &aliasEntry{}
		d.trie[key] = e
	}
	return e
}

// cooldownTarget derives the i-th deterministic pseudo-random re-probe
// address inside a detect-prefix. The derivation is keyed separately
// from the scan PRF, so cooldown targets never collide with the
// permutation's probe addresses.
func (d *aliasDetector) cooldownTarget(key uint64, i int) ipv6.Addr {
	base := key << (64 - aliasPrefixLen)
	iidHi, iidLo, _ := d.prf.derive(base, uint64(i))
	hostHi := iidHi & (1<<(64-aliasPrefixLen) - 1)
	if hostHi == 0 && iidLo == 0 {
		iidLo = 1
	}
	return ipv6.AddrFrom128(uint128.New(base|hostHi, iidLo))
}

// takePending returns and clears the cooldown probes queued for send.
func (d *aliasDetector) takePending() []ipv6.Addr {
	p := d.pending
	d.pending = d.pending[:0]
	return p
}

// BlockedPrefixes returns the detect-prefixes the runtime detector has
// folded into the blocklist, in detection order. Oracles score detector
// precision (every entry must lie inside a planted hostile region) and
// recall against it.
func (s *Scanner) BlockedPrefixes() []ipv6.Prefix {
	if s.alias == nil {
		return nil
	}
	return s.alias.blocked
}

// aliasCool moves a counting prefix into its cooldown window and queues
// the re-probe targets.
func (s *Scanner) aliasCool(key uint64, e *aliasEntry, stats *Stats) {
	d := s.alias
	e.state = aliasCooling
	e.deadline = d.ticks + cooldownWindow
	d.cooling = append(d.cooling, key)
	stats.AliasDetected++
	s.tracer.Anomaly(telemetry.AnomalyAlias, s.pos, stats.Sent, d.prefixOf(key).Addr().Bytes())
	for i := 0; i < cooldownProbes; i++ {
		dst := d.cooldownTarget(key, i)
		if _, dup := d.outstanding[dst]; dup {
			continue
		}
		d.outstanding[dst] = &aliasProbe{key: key}
		d.pending = append(d.pending, dst)
	}
}

// aliasBlock folds a confirmed-saturated prefix into the runtime
// blocklist, so the permutation skips its remaining targets.
func (s *Scanner) aliasBlock(key uint64, e *aliasEntry, stats *Stats) {
	d := s.alias
	e.state = aliasBlocked
	p := d.prefixOf(key)
	s.BlockRuntime(p)
	d.blocked = append(d.blocked, p)
	stats.AliasBlocked++
}

// aliasObserve feeds one validated response through the detector. It
// reports true when the response is consumed — a cooldown-probe reply,
// or a reply from a prefix already under suspicion or verdict — which
// must then not reach dedup or the handler.
func (s *Scanner) aliasObserve(resp *Response, stats *Stats) bool {
	d := s.alias
	// Cooldown-probe replies are detector traffic, never results. Each
	// outstanding probe contributes evidence at most once; duplicate
	// replies (storms) are still consumed.
	if o, ok := d.outstanding[resp.ProbeDst]; ok {
		e := d.trie[o.key]
		if e != nil && e.state == aliasCooling && !o.evidenced {
			isErr := resp.Kind == KindDestUnreach || resp.Kind == KindTimeExceeded
			// Aliased signature: a pseudo-random cooldown address
			// self-answered. Spoof signature: the error responder is a
			// never-before-seen address (an honest prefix's errors come
			// from its one already-discovered device or router).
			if (resp.Kind == KindEchoReply && resp.Responder == resp.ProbeDst) ||
				(isErr && resp.Responder != resp.ProbeDst && !s.run.seen.has(resp.Responder)) {
				o.evidenced = true
				e.evidence++
				if e.evidence >= aliasConfirm {
					s.aliasBlock(o.key, e, stats)
				}
			}
		}
		return true
	}

	selfEcho := resp.Kind == KindEchoReply && resp.Responder == resp.ProbeDst
	isErr := resp.Kind == KindDestUnreach || resp.Kind == KindTimeExceeded
	if !selfEcho && !isErr {
		return false
	}

	if isErr && resp.Responder != resp.ProbeDst {
		// Spoofed-source trigger, behind the last-responder cache.
		if !d.haveLastResp || d.lastResp != resp.Responder {
			d.lastResp, d.haveLastResp = resp.Responder, true
			hi := resp.Responder.Uint128().Hi
			sl := &d.resp64[(hi*0x9e3779b97f4a7c15)>>(64-respCacheBits)]
			if sl.addr == (ipv6.Addr{}) || sl.key != hi {
				sl.key, sl.addr = hi, resp.Responder
			} else if sl.addr != resp.Responder {
				k := d.keyOf(resp.ProbeDst)
				if e := d.entry(k); e.state == aliasCounting {
					s.aliasCool(k, e, stats)
				}
			}
		}
	}

	if selfEcho {
		k := d.keyOf(resp.ProbeDst)
		e := d.entry(k)
		if e.state == aliasCounting && resp.ProbeDst != e.lastEchoDst {
			e.lastEchoDst = resp.ProbeDst
			e.selfEchoes++
			if e.selfEchoes >= aliasEchoThresh {
				s.aliasCool(k, e, stats)
			}
		}
		if e.state == aliasCooling || e.state == aliasBlocked {
			return true
		}
		return false
	}

	// Error replies from a prefix under suspicion or verdict are
	// consumed so in-flight saturation traffic cannot pollute dedup.
	// The trie is empty for honest scans, so this is a len check.
	if len(d.trie) > 0 {
		if e := d.trie[d.keyOf(resp.ProbeDst)]; e != nil &&
			(e.state == aliasCooling || e.state == aliasBlocked) {
			return true
		}
	}
	return false
}

// aliasQuarantine records one unvalidatable reply: counted, attributed
// to the outer source's detect-prefix, never parsed further — the
// malformed-responder trigger and its cooldown evidence.
func (s *Scanner) aliasQuarantine(raw []byte, stats *Stats) {
	stats.Quarantined++
	src, ok := shedSrc(raw)
	if !ok {
		return
	}
	s.span(telemetry.SpanQuarantine, stats.Sent, src, 0)
	s.tracer.Anomaly(telemetry.AnomalyQuarantine, s.pos, stats.Sent, src.Bytes())
	d := s.alias
	k := d.keyOf(src)
	e := d.entry(k)
	switch e.state {
	case aliasCounting:
		e.quarantined++
		if e.quarantined >= aliasQuarThresh {
			s.aliasCool(k, e, stats)
		}
	case aliasCooling:
		if e.evidence < aliasConfirm {
			e.evidence++
			if e.evidence >= aliasConfirm {
				s.aliasBlock(k, e, stats)
			}
		}
	}
}

// aliasTick advances the cooldown clock one drain window: undecided
// cooling prefixes past their deadline resolve to cleared (honest), and
// outstanding probes of decided prefixes are retired.
func (s *Scanner) aliasTick() {
	d := s.alias
	d.ticks++
	if len(d.cooling) == 0 {
		return
	}
	kept := d.cooling[:0]
	expired := false
	for _, k := range d.cooling {
		e := d.trie[k]
		if e == nil || e.state != aliasCooling {
			expired = true // resolved to blocked; outstanding can retire
			continue
		}
		if d.ticks >= e.deadline {
			e.state = aliasCleared
			expired = true
			continue
		}
		kept = append(kept, k)
	}
	d.cooling = kept
	if !expired {
		return
	}
	for dst, o := range d.outstanding {
		if e := d.trie[o.key]; e == nil || e.state == aliasCleared || e.state == aliasBlocked {
			delete(d.outstanding, dst)
		}
	}
}

// shedSrc extracts the outer IPv6 source of a raw reply (for the shed
// pre-pass and quarantine attribution); ok is false for packets too
// short to carry one.
func shedSrc(raw []byte) (ipv6.Addr, bool) {
	if len(raw) < wire.HeaderLen || raw[0]>>4 != 6 {
		return ipv6.Addr{}, false
	}
	return ipv6.AddrFromBytes(raw[8:24]), true
}

// shedBudget caps the replies one drain processes under Config.Defend:
// four drain windows' worth of probes.
func (s *Scanner) shedBudget() int { return 4 * s.cfg.DrainEvery }

// shed drops lowest-value buffered replies when a drain floods past the
// budget, so an amplifier cannot stall the send path. Two deterministic
// tiers, cheapest information first: replies sourced inside a prefix
// already under suspicion or verdict, then replies from responders
// dedup has already seen (those would be counted duplicates at best).
// Replies from unseen responders are never shed — shedding cannot cost
// recall, only duplicate accounting.
func (s *Scanner) shed(stats *Stats, releaser Releaser) {
	need := len(s.rx) - s.shedBudget()
	before := stats.Shed
	d := s.alias
	for tier := 0; tier < 2 && need > 0; tier++ {
		kept := s.rx[:0]
		for _, raw := range s.rx {
			if need > 0 {
				src, ok := shedSrc(raw)
				drop := false
				if ok {
					switch tier {
					case 0:
						if len(d.trie) > 0 {
							if e := d.trie[d.keyOf(src)]; e != nil &&
								(e.state == aliasCooling || e.state == aliasBlocked) {
								drop = true
							}
						}
					case 1:
						drop = s.run.seen.has(src)
					}
				}
				if drop {
					need--
					stats.Shed++
					if releaser != nil {
						s.recycle = append(s.recycle, raw)
					}
					continue
				}
			}
			kept = append(kept, raw)
		}
		// Zero the tail so dropped buffers are not pinned by the slice.
		for i := len(kept); i < len(s.rx); i++ {
			s.rx[i] = nil
		}
		s.rx = kept
	}
	if n := stats.Shed - before; n > 0 && s.tracer != nil {
		// One span and one exemplar per shedding drain, the drop count
		// as the argument — per-packet spans would amplify the flood.
		s.tracer.Span(s.pos, telemetry.SpanShed, stats.Sent, zeroAddr, n)
		s.tracer.Anomaly(telemetry.AnomalyShed, s.pos, stats.Sent, zeroAddr)
	}
}
