// Package bgp implements the BGP-4 wire structures needed to read and
// write routing data: NLRI prefix encoding, AS_PATH segments (2- and
// 4-byte), path attributes, communities, and UPDATE messages (RFC 4271,
// RFC 6793, RFC 1997).
//
// The package is deliberately scoped to what RIB archival formats (see
// internal/mrt) and the route-propagation simulator (internal/bgpsim)
// require; it is not a BGP speaker.
package bgp

import (
	"errors"
	"fmt"
	"strconv"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// HeaderLen is the fixed BGP message header length: 16-byte marker,
// 2-byte length, 1-byte type.
const HeaderLen = 19

// MaxMessageLen is the largest BGP message permitted by RFC 4271.
const MaxMessageLen = 4096

// Origin is the ORIGIN path attribute value (RFC 4271 §5.1.1).
type Origin uint8

// Origin values.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String returns the conventional one-letter rendering used in looking
// glasses: i, e, or ?.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "i"
	case OriginEGP:
		return "e"
	case OriginIncomplete:
		return "?"
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// Community is an RFC 1997 community value: the high 16 bits conventionally
// hold an AS number and the low 16 bits an operator-assigned value.
type Community uint32

// NewCommunity builds a community from its asn:value parts.
func NewCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the high 16 bits of the community.
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the low 16 bits of the community.
func (c Community) Value() uint16 { return uint16(c) }

// String renders the community in canonical asn:value form.
func (c Community) String() string {
	return strconv.Itoa(int(c.ASN())) + ":" + strconv.Itoa(int(c.Value()))
}

// Well-known communities (RFC 1997 §2).
const (
	CommunityNoExport          Community = 0xFFFFFF01
	CommunityNoAdvertise       Community = 0xFFFFFF02
	CommunityNoExportSubconfed Community = 0xFFFFFF03
)

var errShort = errors.New("bgp: truncated data")

// marker is the all-ones header marker required by RFC 4271 §4.1.
var marker = [16]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// AppendHeader appends a BGP message header for a body of length bodyLen
// and the given message type.
func AppendHeader(dst []byte, msgType uint8, bodyLen int) ([]byte, error) {
	total := HeaderLen + bodyLen
	if total > MaxMessageLen {
		return nil, fmt.Errorf("bgp: message length %d exceeds %d", total, MaxMessageLen)
	}
	dst = append(dst, marker[:]...)
	dst = append(dst, byte(total>>8), byte(total))
	dst = append(dst, msgType)
	return dst, nil
}

// ParseHeader validates a BGP message header and returns the message type
// and the body. The body slice aliases msg.
func ParseHeader(msg []byte) (msgType uint8, body []byte, err error) {
	if len(msg) < HeaderLen {
		return 0, nil, errShort
	}
	for i, b := range msg[:16] {
		if b != 0xff {
			return 0, nil, fmt.Errorf("bgp: bad header marker byte %#02x at offset %d", b, i)
		}
	}
	length := int(msg[16])<<8 | int(msg[17])
	if length < HeaderLen || length > MaxMessageLen {
		return 0, nil, fmt.Errorf("bgp: bad message length %d", length)
	}
	if len(msg) < length {
		return 0, nil, errShort
	}
	return msg[18], msg[HeaderLen:length], nil
}
