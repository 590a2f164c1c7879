// Package routing provides the routing-table building blocks shared by
// the IGP and BGP implementations and by the simulator's forwarding
// plane: CIDR prefixes and a longest-prefix-match table.
package routing

import (
	"fmt"
	"strconv"
	"strings"

	"loopscope/internal/packet"
)

// Prefix is an IPv4 CIDR prefix. The address is stored masked, so two
// Prefix values describing the same network compare equal and the type
// is usable as a map key.
type Prefix struct {
	Addr packet.Addr
	Bits int
}

// mask returns the uint32 netmask for a prefix length.
func mask(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return 0xffffffff
	}
	return ^uint32(0) << (32 - bits)
}

// NewPrefix returns the prefix addr/bits with the address masked to
// the prefix length. It panics if bits is outside [0, 32].
func NewPrefix(addr packet.Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("routing: invalid prefix length %d", bits))
	}
	return Prefix{
		Addr: packet.AddrFromUint32(addr.Uint32() & mask(bits)),
		Bits: bits,
	}
}

// PrefixOf is shorthand for NewPrefix: the /bits prefix containing
// addr.
func PrefixOf(addr packet.Addr, bits int) Prefix { return NewPrefix(addr, bits) }

// Range returns the half-open address interval [lo, hi) the prefix
// covers, as uint64 so a /0's upper bound (2^32) is representable.
func (p Prefix) Range() (lo, hi uint64) {
	lo = uint64(p.Addr.Uint32())
	return lo, lo + 1<<(32-p.Bits)
}

// MarshalText encodes the prefix in CIDR notation, making Prefix
// usable directly in JSON documents (including as a map key).
func (p Prefix) MarshalText() ([]byte, error) {
	return []byte(p.String()), nil
}

// UnmarshalText parses CIDR notation, the inverse of MarshalText.
func (p *Prefix) UnmarshalText(text []byte) error {
	q, err := ParsePrefix(string(text))
	if err != nil {
		return err
	}
	*p = q
	return nil
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr packet.Addr) bool {
	return addr.Uint32()&mask(p.Bits) == p.Addr.Uint32()
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Bits > q.Bits {
		p, q = q, p
	}
	return q.Addr.Uint32()&mask(p.Bits) == p.Addr.Uint32()
}

// String formats the prefix in CIDR notation. It is built in a stack
// buffer, so the string is its one allocation.
func (p Prefix) String() string {
	var buf [len("255.255.255.255/32")]byte
	b := strconv.AppendUint(buf[:0], uint64(p.Addr[0]), 10)
	for _, o := range p.Addr[1:] {
		b = strconv.AppendUint(append(b, '.'), uint64(o), 10)
	}
	return string(strconv.AppendInt(append(b, '/'), int64(p.Bits), 10))
}

// ParsePrefix parses CIDR notation ("10.1.2.0/24"). The host part, if
// any, is masked off.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("routing: missing '/' in prefix %q", s)
	}
	addr, err := packet.ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("routing: bad prefix length in %q", s)
	}
	return NewPrefix(addr, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error, for tests and
// static configuration.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
