// Package asn provides utilities for working with Autonomous System
// numbers: classification of reserved, private and documentation ranges,
// and conversion between asplain and asdot notations (RFC 5396).
//
// AS numbers are represented as plain uint32 throughout this module; the
// 2-byte/4-byte distinction only matters on the wire (see internal/bgp).
package asn

import (
	"fmt"
	"strconv"
	"strings"
)

// Well-known AS numbers and range boundaries (IANA registry, RFC 1930,
// RFC 5398, RFC 6996, RFC 7300).
const (
	// Trans is AS_TRANS (RFC 6793): substituted for 4-byte ASNs when
	// speaking to 2-byte-only BGP peers.
	Trans = 23456

	// Doc16First..Doc16Last is the 16-bit documentation range (RFC 5398).
	Doc16First = 64496
	Doc16Last  = 64511

	// Private16First..Private16Last is the 16-bit private-use range
	// (RFC 6996).
	Private16First = 64512
	Private16Last  = 65534

	// Last16 is 65535, reserved by RFC 7300.
	Last16 = 65535

	// Doc32First..Doc32Last is the 32-bit documentation range (RFC 5398).
	Doc32First = 65536
	Doc32Last  = 65551

	// Private32First..Private32Last is the 32-bit private-use range
	// (RFC 6996).
	Private32First = 4200000000
	Private32Last  = 4294967294

	// Last32 is 4294967295, reserved by RFC 7300.
	Last32 = 4294967295
)

// IsPrivate reports whether a is in one of the private-use ranges
// (RFC 6996).
func IsPrivate(a uint32) bool {
	return (a >= Private16First && a <= Private16Last) ||
		(a >= Private32First && a <= Private32Last)
}

// IsDocumentation reports whether a is in one of the documentation ranges
// (RFC 5398).
func IsDocumentation(a uint32) bool {
	return (a >= Doc16First && a <= Doc16Last) ||
		(a >= Doc32First && a <= Doc32Last)
}

// IsReserved reports whether a must not appear as a routable AS in a
// public AS path: AS0, AS_TRANS, documentation, private use, and the
// RFC 7300 last ASNs. Paths containing reserved ASNs are discarded during
// sanitization.
func IsReserved(a uint32) bool {
	switch {
	case a == 0:
		return true
	case a == Trans:
		return true
	case a == Last16 || a == Last32:
		return true
	}
	return IsPrivate(a) || IsDocumentation(a)
}

// Parse parses an AS number in either asplain ("65550") or asdot ("1.14")
// notation, with an optional "AS" prefix in any case ("AS174", "as1.14").
func Parse(s string) (uint32, error) {
	orig := s
	if len(s) >= 2 && (s[0] == 'A' || s[0] == 'a') && (s[1] == 'S' || s[1] == 's') {
		s = s[2:]
	}
	if s == "" {
		return 0, fmt.Errorf("asn: empty AS number %q", orig)
	}
	if hi, lo, ok := strings.Cut(s, "."); ok {
		h, err := strconv.ParseUint(hi, 10, 16)
		if err != nil {
			return 0, fmt.Errorf("asn: bad asdot high part in %q: %w", orig, err)
		}
		l, err := strconv.ParseUint(lo, 10, 16)
		if err != nil {
			return 0, fmt.Errorf("asn: bad asdot low part in %q: %w", orig, err)
		}
		return uint32(h)<<16 | uint32(l), nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("asn: bad AS number %q: %w", orig, err)
	}
	return uint32(v), nil
}
