package packet

import (
	"fmt"
	"strconv"
)

// Addr is an IPv4 address in network byte order. It is a fixed-size
// array so it is comparable and usable as a map key without
// allocation, which matters on the detector's hot path.
type Addr [4]byte

// AddrFrom returns the address a.b.c.d.
func AddrFrom(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// AddrFromUint32 converts a host-order uint32 (a<<24|b<<16|c<<8|d)
// into an Addr.
func AddrFromUint32(v uint32) Addr {
	return Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Uint32 returns the address as a host-order uint32.
func (a Addr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IsMulticast reports whether the address is in 224.0.0.0/4.
func (a Addr) IsMulticast() bool { return a[0]&0xf0 == 0xe0 }

// String formats the address in dotted-quad notation. It is built in
// a stack buffer, so the string is its one allocation.
func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	b := strconv.AppendUint(buf[:0], uint64(a[0]), 10)
	for _, o := range a[1:] {
		b = strconv.AppendUint(append(b, '.'), uint64(o), 10)
	}
	return string(b)
}

// ParseAddr parses dotted-quad notation. It accepts exactly four
// decimal octets.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	octet := 0
	val := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if val < 0 {
				val = 0
			}
			val = val*10 + int(c-'0')
			if val > 255 {
				return Addr{}, fmt.Errorf("packet: octet out of range in %q", s)
			}
		case c == '.':
			if val < 0 || octet >= 3 {
				return Addr{}, fmt.Errorf("packet: malformed address %q", s)
			}
			a[octet] = byte(val)
			octet++
			val = -1
		default:
			return Addr{}, fmt.Errorf("packet: invalid character %q in %q", c, s)
		}
	}
	if octet != 3 || val < 0 {
		return Addr{}, fmt.Errorf("packet: malformed address %q", s)
	}
	a[3] = byte(val)
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error, for use in tests
// and static configuration.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}
