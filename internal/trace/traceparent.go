package trace

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Traceparent renders the span's context as a W3C traceparent header
// value (version 00, sampled flag set): 00-<32hex>-<16hex>-01. Returns
// "" for a nil span so callers can set the header unconditionally.
func Traceparent(s *Span) string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("00-%s-%016x-01", s.Trace, s.ID)
}

// ParseTraceparent parses a W3C traceparent header value,
// version-traceid-parentid-flags, every field lowercase hex. It refuses
// what the spec tells a receiver to ignore: version ff, a version-00
// value with anything after the flags, any field that is not exactly
// its width in lowercase hex, and all-zero trace or span IDs. A version
// above 00 is read by its first four fields, as the spec says.
func ParseTraceparent(h string) (TraceID, uint64, bool) {
	f := strings.SplitN(strings.TrimSpace(h), "-", 5)
	var version, flags [1]byte
	var id TraceID
	var span [8]byte
	if len(f) < 4 ||
		!hexField(version[:], f[0]) || version[0] == 0xff || version[0] == 0 && len(f) > 4 ||
		!hexField(id[:], f[1]) || !hexField(span[:], f[2]) || !hexField(flags[:], f[3]) {
		return TraceID{}, 0, false
	}
	spanID := binary.BigEndian.Uint64(span[:])
	if !id.IsValid() || spanID == 0 {
		return TraceID{}, 0, false
	}
	return id, spanID, true
}

// hexField decodes s into dst when s is exactly 2·len(dst) lowercase
// hex digits, and reports whether it was.
func hexField(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := lowerHexDigit(s[2*i])
		lo, ok2 := lowerHexDigit(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func lowerHexDigit(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}
