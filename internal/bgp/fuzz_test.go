package bgp

import (
	"bytes"
	"net/netip"
	"testing"

	"github.com/asrank-go/asrank/internal/chaos"
)

// fuzzCorpusSeed keys the shared chaos-corrupted corpus: the bgp and
// mrt fuzz targets derive their damaged seeds from the same generator
// (chaos.CorruptVariants), so both codecs chew on the breakage shapes
// the live path is hardened against.
const fuzzCorpusSeed = 20130401

// FuzzParseAttributes checks the attribute decoder never panics and
// that whatever it accepts re-encodes and re-decodes stably.
func FuzzParseAttributes(f *testing.F) {
	good, _ := (&PathAttributes{
		Origin:      OriginIGP,
		ASPath:      Sequence(7018, 3356, 64500),
		NextHop:     netip.MustParseAddr("192.0.2.1"),
		Communities: []Community{NewCommunity(3356, 100)},
	}).Encode(true)
	f.Add(good, true)
	f.Add(good, false)
	f.Add([]byte{}, true)
	f.Add([]byte{0x40, 1, 1, 0}, true)
	for _, v := range chaos.CorruptVariants(fuzzCorpusSeed, good, 8) {
		f.Add(v, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, as4 bool) {
		attrs, err := ParseAttributes(data, as4)
		if err != nil {
			return
		}
		enc, err := attrs.Encode(as4)
		if err != nil {
			// Some decodable inputs are not canonically encodable (e.g.
			// an oversized AS_SET); that is acceptable.
			return
		}
		if _, err := ParseAttributes(enc, as4); err != nil {
			t.Fatalf("re-encoded attributes failed to parse: %v", err)
		}
	})
}

// FuzzParseUpdate checks the UPDATE decoder never panics.
func FuzzParseUpdate(f *testing.F) {
	msg, _ := EncodeUpdate(&Update{
		NLRI: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")},
		Attrs: PathAttributes{
			Origin:  OriginIGP,
			ASPath:  Sequence(7018),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		},
	}, true)
	f.Add(msg, true)
	f.Add([]byte{}, false)
	for _, v := range chaos.CorruptVariants(fuzzCorpusSeed, msg, 8) {
		f.Add(v, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, as4 bool) {
		upd, err := ParseUpdate(data, as4)
		if err != nil {
			return
		}
		if _, err := EncodeUpdate(upd, as4); err != nil {
			// Oversized or non-canonical forms may not re-encode; the
			// decoder just must not panic or mis-parse.
			return
		}
	})
}

// FuzzParseOpenBody checks the OPEN decoder never panics.
func FuzzParseOpenBody(f *testing.F) {
	msg, _ := EncodeOpen(&Open{ASN: 7018, HoldTime: 90, BGPID: netip.MustParseAddr("10.0.0.1")})
	f.Add(msg[HeaderLen:])
	f.Add([]byte{})
	for _, v := range chaos.CorruptVariants(fuzzCorpusSeed, msg[HeaderLen:], 8) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseOpenBody(data)
	})
}

// FuzzReadMessage drives the stream framer with arbitrary byte soup —
// the exact surface the chaos injector and a flaky network hit. It must
// never panic, never return a frame longer than the wire limit, and any
// UPDATE it frames must survive the body parser without panicking.
func FuzzReadMessage(f *testing.F) {
	upd, _ := EncodeUpdate(&Update{
		NLRI: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")},
		Attrs: PathAttributes{
			Origin:  OriginIGP,
			ASPath:  Sequence(7018, 3356),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		},
	}, true)
	stream := append(append([]byte(nil), EncodeKeepalive()...), upd...)
	f.Add(stream)
	f.Add([]byte{})
	for _, v := range chaos.CorruptVariants(fuzzCorpusSeed, stream, 8) {
		f.Add(v)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 64; i++ {
			msg, err := ReadMessage(r)
			if err != nil {
				return
			}
			if len(msg) > MaxMessageLen {
				t.Fatalf("framed %d bytes, above the %d wire limit", len(msg), MaxMessageLen)
			}
			typ, body, err := ParseHeader(msg)
			if err != nil {
				t.Fatalf("ReadMessage returned an unparseable frame: %v", err)
			}
			if typ == MsgUpdate {
				_, _ = ParseUpdateBody(body, true)
			}
		}
	})
}
