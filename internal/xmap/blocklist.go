package xmap

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/ipv6"
	"repro/internal/lpm"
)

// BlockRuntime inserts a prefix into the scanner's blocklist while a
// scan runs — the alias detector's feedback path: confirmed-saturated
// prefixes are folded in so the permutation skips their remaining
// targets (counted in Stats.Blocked, exactly like configured entries).
// Not safe to call concurrently with Run from another goroutine; the
// detector calls it from within the scan loop.
func (s *Scanner) BlockRuntime(p ipv6.Prefix) {
	if s.block == nil {
		s.block = lpm.New[bool]()
	}
	s.block.Insert(p, true)
}

// ParseBlocklist reads a ZMap-style blocklist: one prefix per line,
// with `#` comments and blank lines ignored. Bare addresses are treated
// as /128 (or /32 for dotted quads, returned v4-mapped).
//
// Research scanners ship with a blocklist of reserved and opt-out space;
// the paper's ethics section (IV-D) requires honoring it.
func ParseBlocklist(r io.Reader) ([]ipv6.Prefix, error) {
	var out []ipv6.Prefix
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		p, err := parseBlockEntry(line)
		if err != nil {
			return nil, fmt.Errorf("xmap: blocklist line %d: %w", lineNo, err)
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("xmap: reading blocklist: %w", err)
	}
	return out, nil
}

func parseBlockEntry(s string) (ipv6.Prefix, error) {
	if strings.Contains(s, ":") {
		if strings.Contains(s, "/") {
			return ipv6.ParsePrefix(s)
		}
		a, err := ipv6.ParseAddr(s)
		if err != nil {
			return ipv6.Prefix{}, err
		}
		return ipv6.NewPrefix(a, 128)
	}
	// Dotted quad, possibly with /len: map into ::ffff:0:0/96.
	addrPart, lenPart, hasLen := strings.Cut(s, "/")
	v4, err := ipv6.ParseDottedQuad(addrPart)
	if err != nil {
		return ipv6.Prefix{}, fmt.Errorf("bad IPv4 address %q: %w", addrPart, err)
	}
	bits := 32
	if hasLen {
		if bits, err = parseV4Bits(lenPart); err != nil {
			return ipv6.Prefix{}, err
		}
	}
	return ipv6.NewPrefix(ipv6.V4Mapped(v4), 96+bits)
}

// parseV4Bits parses an IPv4 prefix length exactly: decimal digits with
// no sign, space or leading zero, at most 32.
func parseV4Bits(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 32 || strconv.Itoa(n) != s {
		return 0, fmt.Errorf("bad IPv4 prefix length %q", s)
	}
	return n, nil
}
