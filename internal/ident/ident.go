// Package ident provides 48-bit service identifiers for SMC members.
//
// The paper (§IV) derives a 48-bit ID for each service from the transport
// layer's unicast socket address and port so that the prototype is not
// hardwired to a specific port. This package reproduces that scheme and
// adds deterministic and random generation for simulated transports.
package ident

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
)

// ID is a 48-bit service identifier. The upper 16 bits of the uint64 are
// always zero.
type ID uint64

// mask is the bit mask for valid IDs: only the low 48 bits may be set.
const mask ID = (1 << 48) - 1

// Nil is the zero ID; it never identifies a live service.
const Nil ID = 0

// Broadcast addresses every member of the cell. It is the all-ones ID,
// mirroring link-layer broadcast addressing.
const Broadcast ID = mask

var (
	// errBadFormat reports an unparseable ID string.
	errBadFormat = errors.New("ident: bad ID format")
	// errOutOfRange reports a value that does not fit in 48 bits.
	errOutOfRange = errors.New("ident: value exceeds 48 bits")
)

// New builds an ID from a raw value, masking it to 48 bits.
func New(v uint64) ID {
	return ID(v) & mask
}

// fromAddr derives an ID from an IPv4 address and port, matching the
// paper's prototype: 32 bits of address, 16 bits of port.
func fromAddr(ip net.IP, port int) (ID, error) {
	v4 := ip.To4()
	if v4 == nil {
		return Nil, fmt.Errorf("ident: non-IPv4 address %v", ip)
	}
	if port < 0 || port > 0xFFFF {
		return Nil, fmt.Errorf("ident: port %d out of range", port)
	}
	v := uint64(v4[0])<<40 | uint64(v4[1])<<32 | uint64(v4[2])<<24 |
		uint64(v4[3])<<16 | uint64(port)
	return ID(v), nil
}

// FromUDPAddr derives an ID from a *net.UDPAddr.
func FromUDPAddr(addr *net.UDPAddr) (ID, error) {
	if addr == nil {
		return Nil, errors.New("ident: nil UDP address")
	}
	return fromAddr(addr.IP, addr.Port)
}

// Addr recovers the IPv4 address and port an ID encodes. The mapping is
// only meaningful for IDs produced by fromAddr.
func (id ID) Addr() (net.IP, int) {
	ip := net.IPv4(byte(id>>40), byte(id>>32), byte(id>>24), byte(id>>16))
	return ip, int(id & 0xFFFF)
}

// IsNil reports whether the ID is the zero ID.
func (id ID) IsNil() bool { return id == Nil }

// IsBroadcast reports whether the ID is the broadcast ID.
func (id ID) IsBroadcast() bool { return id == Broadcast }

// String renders the ID as six colon-separated hex octets, in the style
// of a MAC address (the natural rendering of a 48-bit identifier).
func (id ID) String() string {
	var sb strings.Builder
	sb.Grow(17)
	for shift := 40; shift >= 0; shift -= 8 {
		if shift != 40 {
			sb.WriteByte(':')
		}
		octet := byte(id >> uint(shift))
		const hexdigits = "0123456789abcdef"
		sb.WriteByte(hexdigits[octet>>4])
		sb.WriteByte(hexdigits[octet&0xF])
	}
	return sb.String()
}

// Parse decodes the String form (six colon-separated hex octets) or a
// plain decimal/hex integer ("123", "0x7b").
func Parse(s string) (ID, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 6 {
			return Nil, fmt.Errorf("%w: %q", errBadFormat, s)
		}
		var v uint64
		for _, p := range parts {
			octet, err := strconv.ParseUint(p, 16, 8)
			if err != nil {
				return Nil, fmt.Errorf("%w: %q", errBadFormat, s)
			}
			v = v<<8 | octet
		}
		return ID(v), nil
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return Nil, fmt.Errorf("%w: %q", errBadFormat, s)
	}
	if ID(v)&^mask != 0 {
		return Nil, fmt.Errorf("%w: %q", errOutOfRange, s)
	}
	return ID(v), nil
}
