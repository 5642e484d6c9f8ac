// Package dnswire implements the DNS wire format (RFC 1035) to the extent
// the measurement needs: the scanner's probe module sends A and
// version.bind/CH/TXT queries, and the simulated periphery DNS forwarders
// answer them. Parsing follows compression pointers; encoding emits
// uncompressed names.
package dnswire

import (
	"errors"
	"fmt"
)

// Common type and class codes.
const (
	TypeA    = 1
	TypePTR  = 12
	TypeTXT  = 16
	TypeAAAA = 28
	TypeANY  = 255
	ClassIN  = 1
	ClassCH  = 3 // CHAOS, used for version.bind
)

// Response codes.
const (
	RcodeNoError  = 0
	RcodeFormErr  = 1
	RcodeServFail = 2
	RcodeNXDomain = 3
	RcodeNotImp   = 4
	RcodeRefused  = 5
)

// Header flag bits (within the 16-bit flags field).
const (
	FlagQR = 1 << 15 // response
	FlagAA = 1 << 10 // authoritative answer
	FlagTC = 1 << 9  // truncated
	FlagRD = 1 << 8  // recursion desired
	FlagRA = 1 << 7  // recursion available
)

// Question is one query entry.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// RR is a resource record.
type RR struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// Message is a DNS message.
type Message struct {
	ID        uint16
	Flags     uint16
	Questions []Question
	Answers   []RR
	Authority []RR
	Extra     []RR
}

// Rcode extracts the response code from the flags.
func (m *Message) Rcode() int { return int(m.Flags & 0xf) }

// Name faults. They are preallocated so the allocation-free readers
// (Check, AppendParsedName) fail without allocating.
var (
	errEmptyLabel   = errors.New("dnswire: empty label")
	errLongLabel    = errors.New("dnswire: label too long")
	errNamePastEnd  = errors.New("dnswire: name runs past message end")
	errTruncPtr     = errors.New("dnswire: truncated compression pointer")
	errPtrLoop      = errors.New("dnswire: compression pointer loop")
	errPtrForward   = errors.New("dnswire: compression pointer does not point back")
	errLabelPastEnd = errors.New("dnswire: label runs past message end")
	// errReserved is indexed by the label type's high bit: 0x40, 0x80.
	errReserved = [2]error{
		errors.New("dnswire: reserved label type 0x40"),
		errors.New("dnswire: reserved label type 0x80"),
	}
)

// appendName encodes a domain name in uncompressed wire form: one
// trailing dot is dropped, the rest split at dots into labels of 1 to 63
// bytes.
func appendName[S ~string | ~[]byte](b []byte, name S) ([]byte, error) {
	if n := len(name); n > 0 && name[n-1] == '.' {
		name = name[:n-1]
	}
	for len(name) > 0 {
		i := 0
		for i < len(name) && name[i] != '.' {
			i++
		}
		switch {
		case i == 0 || i == len(name)-1:
			// A leading dot, two in a row, or a trailing one left after
			// the trim: an empty label.
			return nil, errEmptyLabel
		case i > 63:
			return nil, errLongLabel
		}
		b = append(b, byte(i))
		b = append(b, name[:i]...)
		if i == len(name) {
			break
		}
		name = name[i+1:]
	}
	return append(b, 0), nil
}

// AppendName appends name, as AppendParsedName decodes it, in the
// uncompressed wire form Marshal writes. It allocates only to grow b.
func AppendName(b, name []byte) ([]byte, error) { return appendName(b, name) }

// AppendParsedName appends the name at off in msg to dst as Parse
// decodes it — labels joined by dots, compression pointers followed,
// the root as no bytes at all — and returns the offset just past the
// name in the uncompressed stream. It fails where Parse does, and
// allocates only to grow dst.
func AppendParsedName(dst, msg []byte, off int) ([]byte, int, error) {
	return walkName(dst, true, msg, off)
}

// walkName is the one name decoder: AppendParsedName with keep, and a
// bounds walk that appends nothing without it.
func walkName(dst []byte, keep bool, msg []byte, off int) ([]byte, int, error) {
	retOff, jumped, hops, start := off, false, 0, len(dst)
	for {
		if off >= len(msg) {
			return dst, 0, errNamePastEnd
		}
		l := int(msg[off])
		switch {
		case l == 0:
			if !jumped {
				retOff = off + 1
			}
			return dst, retOff, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return dst, 0, errTruncPtr
			}
			if !jumped {
				retOff = off + 2
				jumped = true
			}
			if hops++; hops > 32 {
				return dst, 0, errPtrLoop
			}
			// RFC 1035 §4.1.4: a pointer names a prior occurrence of
			// the name, so it points strictly before itself.
			ptr := (l&0x3f)<<8 | int(msg[off+1])
			if ptr >= off {
				return dst, 0, errPtrForward
			}
			off = ptr
		case l&0xc0 != 0:
			return dst, 0, errReserved[l>>7]
		default:
			if off+1+l > len(msg) {
				return dst, 0, errLabelPastEnd
			}
			if keep {
				if len(dst) > start {
					dst = append(dst, '.')
				}
				dst = append(dst, msg[off+1:off+1+l]...)
			}
			off += 1 + l
		}
	}
}

// parseName decodes a possibly compressed name starting at off, returning
// the name ("." for the root) and the offset just past it in the
// uncompressed stream.
func parseName(msg []byte, off int) (string, int, error) {
	var buf [64]byte
	b, next, err := AppendParsedName(buf[:0], msg, off)
	if err != nil {
		return "", 0, err
	}
	if len(b) == 0 {
		return ".", next, nil
	}
	return string(b), next, nil
}

// Check reports whether Parse accepts b — the header, every question
// and every resource record within the message — without building the
// message or allocating.
func Check(b []byte) bool {
	if len(b) < 12 {
		return false
	}
	rd16 := func(off int) int { return int(b[off])<<8 | int(b[off+1]) }
	off := 12
	for i := rd16(4); i > 0; i-- {
		_, n, err := walkName(nil, false, b, off)
		if err != nil || n+4 > len(b) {
			return false
		}
		off = n + 4
	}
	for i := rd16(6) + rd16(8) + rd16(10); i > 0; i-- {
		_, n, err := walkName(nil, false, b, off)
		if err != nil || n+10 > len(b) {
			return false
		}
		off = n + 10 + rd16(n+8)
		if off > len(b) {
			return false
		}
	}
	return true
}

func put16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func put32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Marshal serializes the message.
func (m *Message) Marshal() ([]byte, error) {
	b := make([]byte, 0, 128)
	b = put16(b, m.ID)
	b = put16(b, m.Flags)
	b = put16(b, uint16(len(m.Questions)))
	b = put16(b, uint16(len(m.Answers)))
	b = put16(b, uint16(len(m.Authority)))
	b = put16(b, uint16(len(m.Extra)))
	var err error
	for _, q := range m.Questions {
		if b, err = appendName(b, q.Name); err != nil {
			return nil, fmt.Errorf("%w in %q", err, q.Name)
		}
		b = put16(b, q.Type)
		b = put16(b, q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Extra} {
		for _, rr := range sec {
			if b, err = appendName(b, rr.Name); err != nil {
				return nil, fmt.Errorf("%w in %q", err, rr.Name)
			}
			b = put16(b, rr.Type)
			b = put16(b, rr.Class)
			b = put32(b, rr.TTL)
			if len(rr.Data) > 0xffff {
				return nil, fmt.Errorf("dnswire: rdata too long")
			}
			b = put16(b, uint16(len(rr.Data)))
			b = append(b, rr.Data...)
		}
	}
	return b, nil
}

// Parse decodes a DNS message.
func Parse(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("dnswire: message too short: %d bytes", len(b))
	}
	rd16 := func(off int) uint16 { return uint16(b[off])<<8 | uint16(b[off+1]) }
	m := &Message{ID: rd16(0), Flags: rd16(2)}
	qd, an, ns, ar := int(rd16(4)), int(rd16(6)), int(rd16(8)), int(rd16(10))
	off := 12
	for i := 0; i < qd; i++ {
		name, n, err := parseName(b, off)
		if err != nil {
			return nil, err
		}
		off = n
		if off+4 > len(b) {
			return nil, fmt.Errorf("dnswire: truncated question")
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: rd16(off), Class: rd16(off + 2)})
		off += 4
	}
	parseRRs := func(count int) ([]RR, error) {
		var rrs []RR
		for i := 0; i < count; i++ {
			name, n, err := parseName(b, off)
			if err != nil {
				return nil, err
			}
			off = n
			if off+10 > len(b) {
				return nil, fmt.Errorf("dnswire: truncated resource record")
			}
			rr := RR{
				Name:  name,
				Type:  rd16(off),
				Class: rd16(off + 2),
				TTL:   uint32(rd16(off+4))<<16 | uint32(rd16(off+6)),
			}
			rdlen := int(rd16(off + 8))
			off += 10
			if off+rdlen > len(b) {
				return nil, fmt.Errorf("dnswire: rdata runs past message end")
			}
			rr.Data = b[off : off+rdlen]
			off += rdlen
			rrs = append(rrs, rr)
		}
		return rrs, nil
	}
	var err error
	if m.Answers, err = parseRRs(an); err != nil {
		return nil, err
	}
	if m.Authority, err = parseRRs(ns); err != nil {
		return nil, err
	}
	if m.Extra, err = parseRRs(ar); err != nil {
		return nil, err
	}
	return m, nil
}

// NewQuery builds a standard recursive query for (name, type, class).
func NewQuery(id uint16, name string, qtype, qclass uint16) *Message {
	return &Message{
		ID:        id,
		Flags:     FlagRD,
		Questions: []Question{{Name: name, Type: qtype, Class: qclass}},
	}
}

// NewVersionBindQuery builds the classic software-version fingerprint
// query: version.bind. CH TXT.
func NewVersionBindQuery(id uint16) *Message {
	return NewQuery(id, "version.bind", TypeTXT, ClassCH)
}

// TXTData encodes strings as TXT rdata (length-prefixed character
// strings).
func TXTData(strs ...string) ([]byte, error) {
	var b []byte
	for _, s := range strs {
		if len(s) > 255 {
			return nil, fmt.Errorf("dnswire: TXT string too long")
		}
		b = append(b, byte(len(s)))
		b = append(b, s...)
	}
	return b, nil
}

// ParseTXTData decodes TXT rdata into its strings.
func ParseTXTData(b []byte) ([]string, error) {
	var out []string
	for len(b) > 0 {
		l := int(b[0])
		if 1+l > len(b) {
			return nil, fmt.Errorf("dnswire: truncated TXT string")
		}
		out = append(out, string(b[1:1+l]))
		b = b[1+l:]
	}
	return out, nil
}
