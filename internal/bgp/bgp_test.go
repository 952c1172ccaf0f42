package bgp

import (
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "i" || OriginEGP.String() != "e" || OriginIncomplete.String() != "?" {
		t.Error("origin strings wrong")
	}
	if Origin(9).String() != "origin(9)" {
		t.Error("unknown origin string wrong")
	}
}

func TestCommunity(t *testing.T) {
	c := NewCommunity(3356, 100)
	if c.ASN() != 3356 || c.Value() != 100 {
		t.Errorf("community parts wrong: %d:%d", c.ASN(), c.Value())
	}
	if c.String() != "3356:100" {
		t.Errorf("community string = %q", c.String())
	}
}

// TestCommunityRoundTrip: a community's two halves read back as packed.
func TestCommunityRoundTrip(t *testing.T) {
	f := func(asn, val uint16) bool {
		c := NewCommunity(asn, val)
		return c.ASN() == asn && c.Value() == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	msg, err := AppendHeader(nil, MsgUpdate, 4)
	if err != nil {
		t.Fatal(err)
	}
	msg = append(msg, 1, 2, 3, 4)
	typ, body, err := ParseHeader(msg)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgUpdate || len(body) != 4 || body[0] != 1 {
		t.Errorf("header round trip wrong: typ=%d body=%v", typ, body)
	}
}

func TestHeaderErrors(t *testing.T) {
	if _, _, err := ParseHeader(make([]byte, 10)); err == nil {
		t.Error("short header should fail")
	}
	bad := make([]byte, HeaderLen)
	if _, _, err := ParseHeader(bad); err == nil {
		t.Error("zero marker should fail")
	}
	msg, _ := AppendHeader(nil, MsgKeepalive, 0)
	msg[17] = 5 // length below header size
	if _, _, err := ParseHeader(msg); err == nil {
		t.Error("undersized length should fail")
	}
	if _, err := AppendHeader(nil, MsgUpdate, MaxMessageLen); err == nil {
		t.Error("oversized message should fail")
	}
}

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestNLRIRoundTrip(t *testing.T) {
	prefixes := []netip.Prefix{
		mustPrefix("0.0.0.0/0"),
		mustPrefix("10.0.0.0/8"),
		mustPrefix("192.0.2.0/24"),
		mustPrefix("198.51.100.128/25"),
		mustPrefix("203.0.113.7/32"),
	}
	b := AppendNLRIs(nil, prefixes)
	got, err := ParseNLRIs(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, prefixes) {
		t.Errorf("NLRI round trip: got %v want %v", got, prefixes)
	}
}

func TestNLRIv6RoundTrip(t *testing.T) {
	prefixes := []netip.Prefix{
		mustPrefix("::/0"),
		mustPrefix("2001:db8::/32"),
		mustPrefix("2001:db8:1:2::/64"),
		mustPrefix("2001:db8::1/128"),
	}
	b := AppendNLRIs(nil, prefixes)
	got, err := ParseNLRIs(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, prefixes) {
		t.Errorf("v6 NLRI round trip: got %v want %v", got, prefixes)
	}
}

func TestNLRIErrors(t *testing.T) {
	if _, _, err := ParseNLRI(nil, false); err == nil {
		t.Error("empty NLRI should fail")
	}
	if _, _, err := ParseNLRI([]byte{33, 1, 2, 3, 4, 5}, false); err == nil {
		t.Error("v4 prefix length 33 should fail")
	}
	if _, _, err := ParseNLRI([]byte{24, 1, 2}, false); err == nil {
		t.Error("truncated prefix bytes should fail")
	}
}

func TestNLRIQuick(t *testing.T) {
	f := func(a, b, c, d byte, bits uint8) bool {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, d}), int(bits%33)).Masked()
		enc := AppendNLRI(nil, p)
		got, n, err := ParseNLRI(enc, false)
		return err == nil && n == len(enc) && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestASPathFlattenAndOrigin(t *testing.T) {
	p := ASPath{
		{Type: ASSequence, ASNs: []uint32{1, 2, 3}},
		{Type: ASSequence, ASNs: []uint32{4}},
	}
	if !reflect.DeepEqual(p.Flatten(), []uint32{1, 2, 3, 4}) {
		t.Errorf("Flatten = %v", p.Flatten())
	}
	o, ok := p.Origin()
	if !ok || o != 4 {
		t.Errorf("Origin = %d, %v", o, ok)
	}
	if p.HasSet() {
		t.Error("HasSet should be false")
	}
	withSet := ASPath{
		{Type: ASSequence, ASNs: []uint32{1}},
		{Type: ASSet, ASNs: []uint32{5, 6}},
	}
	if !withSet.HasSet() {
		t.Error("HasSet should be true")
	}
	if _, ok := withSet.Origin(); ok {
		t.Error("multi-member set origin should be ambiguous")
	}
	var empty ASPath
	if _, ok := empty.Origin(); ok {
		t.Error("empty path has no origin")
	}
}

func TestASPathString(t *testing.T) {
	p := ASPath{
		{Type: ASSequence, ASNs: []uint32{701, 174}},
		{Type: ASSet, ASNs: []uint32{5, 6}},
	}
	if got := p.String(); got != "701 174 {5,6}" {
		t.Errorf("String = %q", got)
	}
	if got := Sequence(1, 2).String(); got != "1 2" {
		t.Errorf("Sequence String = %q", got)
	}
}

func TestASPathEncode4(t *testing.T) {
	p := Sequence(3356, 174, 4200000001)
	b, err := AppendASPath(nil, p, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseASPath(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("as4 round trip: %v != %v", got, p)
	}
}

func TestASPathEncode2SquashesTo23456(t *testing.T) {
	p := Sequence(3356, 4200000001)
	b, err := AppendASPath(nil, p, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseASPath(b, false)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequence(3356, 23456)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("2-byte squash: got %v want %v", got, want)
	}
}

func TestASPathLongSegmentSplit(t *testing.T) {
	asns := make([]uint32, 300)
	for i := range asns {
		asns[i] = uint32(i + 1)
	}
	b, err := AppendASPath(nil, Sequence(asns...), true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseASPath(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("expected split into 2 segments, got %d", len(got))
	}
	if !reflect.DeepEqual(got.Flatten(), asns) {
		t.Error("flattened split path differs")
	}
	// Oversized AS_SET cannot be split.
	_, err = AppendASPath(nil, ASPath{{Type: ASSet, ASNs: asns}}, true)
	if err == nil {
		t.Error("oversized AS_SET should fail to encode")
	}
}

func TestASPathParseErrors(t *testing.T) {
	if _, err := ParseASPath([]byte{2}, true); err == nil {
		t.Error("truncated segment header should fail")
	}
	if _, err := ParseASPath([]byte{9, 1, 0, 0, 0, 1}, true); err == nil {
		t.Error("bad segment type should fail")
	}
	if _, err := ParseASPath([]byte{2, 2, 0, 0, 0, 1}, true); err == nil {
		t.Error("truncated ASN list should fail")
	}
	if _, err := AppendASPath(nil, ASPath{{Type: 7, ASNs: []uint32{1}}}, true); err == nil {
		t.Error("encoding bad segment type should fail")
	}
}

func TestMergeAS4Path(t *testing.T) {
	// 2-byte path: 701 23456 23456; AS4_PATH: 4200000001 4200000002
	asPath := Sequence(701, 23456, 23456)
	as4Path := Sequence(4200000001, 4200000002)
	got := MergeAS4Path(asPath, as4Path).Flatten()
	want := []uint32{701, 4200000001, 4200000002}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge = %v, want %v", got, want)
	}
	// AS4_PATH longer than AS_PATH is ignored.
	got = MergeAS4Path(Sequence(701), as4Path).Flatten()
	if !reflect.DeepEqual(got, []uint32{701}) {
		t.Errorf("malformed merge = %v", got)
	}
	// No AS4_PATH.
	got = MergeAS4Path(asPath, nil).Flatten()
	if !reflect.DeepEqual(got, asPath.Flatten()) {
		t.Error("nil AS4_PATH should return AS_PATH")
	}
}

func baseAttrs() *PathAttributes {
	return &PathAttributes{
		Origin:  OriginIGP,
		ASPath:  Sequence(7018, 3356, 64500),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	}
}

func TestAttributesRoundTripMinimal(t *testing.T) {
	a := baseAttrs()
	b, err := a.Encode(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAttributes(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got, a)
	}
}

func TestAttributesRoundTripFull(t *testing.T) {
	a := baseAttrs()
	a.Origin = OriginIncomplete
	a.MED, a.HasMED = 50, true
	a.LocalPref, a.HasLocalPref = 200, true
	a.AtomicAggregate = true
	a.Aggregator = &Aggregator{ASN: 7018, Addr: netip.MustParseAddr("198.51.100.1")}
	a.Communities = []Community{NewCommunity(7018, 1000), CommunityNoExport}
	b, err := a.Encode(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAttributes(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got, a)
	}
	// Re-encode must be byte identical (canonical form).
	b2, err := got.Encode(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, b2) {
		t.Error("re-encode is not byte identical")
	}
}

func TestAttributes2ByteWithAS4Path(t *testing.T) {
	a := baseAttrs()
	a.ASPath = Sequence(7018, 4200000001)
	b, err := a.Encode(false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAttributes(b, false)
	if err != nil {
		t.Fatal(err)
	}
	// The 2-byte AS_PATH holds AS_TRANS; merged path recovers the truth.
	merged := got.Path().Flatten()
	if !reflect.DeepEqual(merged, []uint32{7018, 4200000001}) {
		t.Errorf("merged path = %v", merged)
	}
}

func TestAttributesUnknownPreserved(t *testing.T) {
	a := baseAttrs()
	a.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive, Type: 99, Value: []byte{1, 2, 3}}}
	b, err := a.Encode(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAttributes(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Unknown, a.Unknown) {
		t.Errorf("unknown attr not preserved: %+v", got.Unknown)
	}
}

func TestAttributesExtendedLength(t *testing.T) {
	a := baseAttrs()
	// >255 bytes of communities forces the extended-length flag.
	for i := 0; i < 100; i++ {
		a.Communities = append(a.Communities, NewCommunity(65000, uint16(i)))
	}
	b, err := a.Encode(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAttributes(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Communities) != 100 {
		t.Errorf("got %d communities", len(got.Communities))
	}
}

func TestAttributesMPReach(t *testing.T) {
	a := &PathAttributes{
		Origin: OriginIGP,
		ASPath: Sequence(3356, 64500),
		MPReach: &MPReach{
			AFI:     AFIIPv6,
			SAFI:    SAFIUnicast,
			NextHop: netip.MustParseAddr("2001:db8::1"),
			NLRI:    []netip.Prefix{mustPrefix("2001:db8:100::/48")},
		},
	}
	b, err := a.Encode(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAttributes(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("MP_REACH round trip:\ngot  %+v\nwant %+v", got, a)
	}
}

func TestAttributesParseErrors(t *testing.T) {
	cases := [][]byte{
		{0x40},                    // truncated flags/type
		{0x40, 1, 2, 0},           // ORIGIN wrong length
		{0x40, 3, 3, 1, 2, 3},     // NEXT_HOP wrong length
		{0x80, 4, 2, 0, 1},        // MED wrong length
		{0x40, 5, 1, 9},           // LOCAL_PREF wrong length
		{0xc0, 7, 3, 0, 0, 0},     // AGGREGATOR wrong length
		{0xc0, 8, 3, 0, 0, 0},     // COMMUNITIES not multiple of 4
		{0x50, 2},                 // extended flag but no length bytes
		{0x40, 2, 10, 2, 1, 0, 1}, // attr len exceeds data
	}
	for i, c := range cases {
		if _, err := ParseAttributes(c, true); err == nil {
			t.Errorf("case %d should fail: % x", i, c)
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn: []netip.Prefix{mustPrefix("10.1.0.0/16")},
		Attrs:     *baseAttrs(),
		NLRI:      []netip.Prefix{mustPrefix("192.0.2.0/24"), mustPrefix("198.51.100.0/24")},
	}
	msg, err := EncodeUpdate(u, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseUpdate(msg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, u) {
		t.Errorf("update round trip:\ngot  %+v\nwant %+v", got, u)
	}
}

func TestUpdateEmpty(t *testing.T) {
	u := &Update{}
	msg, err := EncodeUpdate(u, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseUpdate(msg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Withdrawn) != 0 || len(got.NLRI) != 0 {
		t.Errorf("empty update round trip: %+v", got)
	}
}

func TestParseUpdateRejectsOtherTypes(t *testing.T) {
	if _, err := ParseUpdate(EncodeKeepalive(), true); err == nil {
		t.Error("keepalive should not parse as update")
	}
}

func TestParseUpdateBodyErrors(t *testing.T) {
	cases := [][]byte{
		{0},             // truncated withdrawn length
		{0, 5, 1},       // withdrawn length exceeds data
		{0, 0, 0},       // truncated attr length
		{0, 0, 0, 9, 1}, // attr length exceeds data
	}
	for i, c := range cases {
		if _, err := ParseUpdateBody(c, true); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestKeepalive(t *testing.T) {
	typ, body, err := ParseHeader(EncodeKeepalive())
	if err != nil || typ != MsgKeepalive || len(body) != 0 {
		t.Errorf("keepalive: typ=%d len=%d err=%v", typ, len(body), err)
	}
}
