package oplog

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// appendNDJSON appends one event as a single JSON object terminated by
// a newline. The encoder is hand-rolled append-style rather than
// encoding/json because the sink sits on the emit path: a fixed field
// order, a reused buffer, and no reflection keep a sunk event at one
// buffered write and zero steady-state allocations.
//
// Line shape:
//
//	{"seq":7,"time":"2026-08-09T12:00:00.000000001Z","sev":"info",
//	 "name":"asrankd.listen","trace":"0123…","attrs":{"addr":"…"}}
//
// trace is omitted when empty; attrs is omitted when the event has
// none. A JSON attribute (oplog.JSON) is nested as the value it
// encodes. Duplicate attribute keys are emitted as-is (callers own key
// uniqueness; JSON parsers keep the last value).
func appendNDJSON(b []byte, e *Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"time":"`...)
	b = e.Time.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","sev":"`...)
	b = append(b, e.Sev.String()...)
	b = append(b, `","name":`...)
	b = appendJSONString(b, e.Name)
	if e.Trace != "" {
		b = append(b, `,"trace":`...)
		b = appendJSONString(b, e.Trace)
	}
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			switch {
			case a.IsInt:
				b = strconv.AppendInt(b, a.Int, 10)
			case a.JSON:
				b = append(b, a.Str...)
			default:
				b = appendJSONString(b, a.Str)
			}
		}
		b = append(b, '}')
	}
	b = append(b, '}', '\n')
	return b
}

// appendInt is the text-tee integer formatter (renderText); split out
// so both renderers share one name for "append a decimal".
func appendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// appendJSONString appends s as a JSON string literal, escaping the
// characters RFC 8259 requires (quote, backslash, control characters)
// and replacing invalid UTF-8 with U+FFFD so the line stays parseable
// no matter what ends up in an attribute value.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"':
				b = append(b, '\\', '"')
			case c == '\\':
				b = append(b, '\\', '\\')
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			case c < 0x20:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				b = append(b, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, `�`...)
			i++
			continue
		}
		b = append(b, s[i:i+size]...)
		i += size
	}
	return append(b, '"')
}

var hexDigits = "0123456789abcdef"
