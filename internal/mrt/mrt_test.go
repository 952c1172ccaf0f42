package mrt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
)

var testTime = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func testAttrs(asns ...uint32) *bgp.PathAttributes {
	return &bgp.PathAttributes{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Sequence(asns...),
		NextHop: addr("192.0.2.1"),
	}
}

func roundTrip(t *testing.T, rec *Record) *Record {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(rec); err != nil {
		t.Fatalf("write: %v", err)
	}
	r := NewReader(&buf)
	got, err := r.Next()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	rec := &Record{
		Timestamp: testTime,
		Type:      TypeTableDumpV2,
		Subtype:   SubtypePeerIndexTable,
		Body: &PeerIndexTable{
			CollectorID: addr("198.51.100.1"),
			ViewName:    "rv2",
			Peers: []Peer{
				{BGPID: addr("10.0.0.1"), Addr: addr("203.0.113.1"), ASN: 7018},
				{BGPID: addr("10.0.0.2"), Addr: addr("2001:db8::2"), ASN: 4200000005},
			},
		},
	}
	got := roundTrip(t, rec)
	if !got.Timestamp.Equal(testTime) {
		t.Errorf("timestamp = %v", got.Timestamp)
	}
	if !reflect.DeepEqual(got.Body, rec.Body) {
		t.Errorf("body mismatch:\ngot  %+v\nwant %+v", got.Body, rec.Body)
	}
}

func TestRIBRoundTrip(t *testing.T) {
	rec := &Record{
		Timestamp: testTime,
		Type:      TypeTableDumpV2,
		Subtype:   SubtypeRIBIPv4Unicast,
		Body: &RIB{
			Sequence: 7,
			Prefix:   prefix("192.0.2.0/24"),
			Entries: []RIBEntry{
				{PeerIndex: 0, Originated: testTime.Add(-time.Hour), Attrs: testAttrs(7018, 3356, 64500)},
				{PeerIndex: 1, Originated: testTime.Add(-2 * time.Hour), Attrs: testAttrs(1299, 64500)},
			},
		},
	}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Body, rec.Body) {
		t.Errorf("body mismatch:\ngot  %+v\nwant %+v", got.Body, rec.Body)
	}
}

func TestRIBv6RoundTrip(t *testing.T) {
	attrs := &bgp.PathAttributes{
		Origin: bgp.OriginIGP,
		ASPath: bgp.Sequence(6939, 64500),
		MPReach: &bgp.MPReach{
			AFI:     bgp.AFIIPv6,
			SAFI:    bgp.SAFIUnicast,
			NextHop: addr("2001:db8::1"),
			NLRI:    []netip.Prefix{prefix("2001:db8:100::/48")},
		},
	}
	rec := &Record{
		Timestamp: testTime,
		Type:      TypeTableDumpV2,
		Subtype:   SubtypeRIBIPv6Unicast,
		Body: &RIB{
			Sequence: 1,
			Prefix:   prefix("2001:db8:100::/48"),
			Entries:  []RIBEntry{{PeerIndex: 0, Originated: testTime, Attrs: attrs}},
		},
	}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Body, rec.Body) {
		t.Errorf("v6 RIB mismatch:\ngot  %+v\nwant %+v", got.Body, rec.Body)
	}
}

func TestTableDumpRoundTrip(t *testing.T) {
	rec := &Record{
		Timestamp: testTime,
		Type:      TypeTableDump,
		Subtype:   SubtypeAFIIPv4,
		Body: &TableDump{
			ViewNumber: 0,
			Sequence:   42,
			Prefix:     prefix("10.1.0.0/16"),
			Status:     1,
			Originated: testTime.Add(-time.Hour),
			PeerAddr:   addr("203.0.113.9"),
			PeerAS:     701,
			Attrs:      testAttrs(701, 174, 64500),
		},
	}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Body, rec.Body) {
		t.Errorf("body mismatch:\ngot  %+v\nwant %+v", got.Body, rec.Body)
	}
}

func TestTableDumpRejects4ByteAS(t *testing.T) {
	td := &TableDump{
		Prefix:   prefix("10.0.0.0/8"),
		PeerAddr: addr("203.0.113.9"),
		PeerAS:   4200000001,
		Attrs:    testAttrs(701),
	}
	if _, err := td.appendTo(nil); err == nil {
		t.Error("4-byte peer AS should fail in TABLE_DUMP")
	}
}

func TestBGP4MPMessageRoundTrip(t *testing.T) {
	upd := &bgp.Update{
		Attrs: *testAttrs(7018, 64500),
		NLRI:  []netip.Prefix{prefix("192.0.2.0/24")},
	}
	msg, err := bgp.EncodeUpdate(upd, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{
		Timestamp: testTime,
		Type:      TypeBGP4MP,
		Subtype:   SubtypeMessageAS4,
		Body: &BGP4MPMessage{
			PeerAS:    4200000001,
			LocalAS:   6447,
			Interface: 0,
			PeerAddr:  addr("203.0.113.1"),
			LocalAddr: addr("203.0.113.2"),
			AS4:       true,
			Data:      msg,
		},
	}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Body, rec.Body) {
		t.Errorf("body mismatch:\ngot  %+v\nwant %+v", got.Body, rec.Body)
	}
	gotUpd, err := got.Body.(*BGP4MPMessage).Update()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotUpd, upd) {
		t.Errorf("update mismatch: %+v", gotUpd)
	}
}

func TestBGP4MPMessage2ByteRejects4ByteAS(t *testing.T) {
	m := &BGP4MPMessage{
		PeerAS:    4200000001,
		LocalAS:   6447,
		PeerAddr:  addr("203.0.113.1"),
		LocalAddr: addr("203.0.113.2"),
		AS4:       false,
	}
	if _, err := m.appendTo(nil); err == nil {
		t.Error("4-byte AS in 2-byte subtype should fail")
	}
}

func TestBGP4MPStateChangeRoundTrip(t *testing.T) {
	rec := &Record{
		Timestamp: testTime,
		Type:      TypeBGP4MP,
		Subtype:   SubtypeStateChangeAS4,
		Body: &BGP4MPStateChange{
			PeerAS:    7018,
			LocalAS:   6447,
			PeerAddr:  addr("2001:db8::1"),
			LocalAddr: addr("2001:db8::2"),
			AS4:       true,
			OldState:  StateOpenConfirm,
			NewState:  StateEstablished,
		},
	}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Body, rec.Body) {
		t.Errorf("body mismatch:\ngot  %+v\nwant %+v", got.Body, rec.Body)
	}
}

func TestBGP4MPETMicroseconds(t *testing.T) {
	ts := testTime.Add(123456 * time.Microsecond)
	rec := &Record{
		Timestamp: ts,
		Type:      TypeBGP4MPET,
		Subtype:   SubtypeStateChange,
		Body: &BGP4MPStateChange{
			PeerAS:    701,
			LocalAS:   6447,
			PeerAddr:  addr("203.0.113.1"),
			LocalAddr: addr("203.0.113.2"),
			OldState:  StateIdle,
			NewState:  StateConnect,
		},
	}
	got := roundTrip(t, rec)
	if !got.Timestamp.Equal(ts) {
		t.Errorf("ET timestamp = %v, want %v", got.Timestamp, ts)
	}
	if !reflect.DeepEqual(got.Body, rec.Body) {
		t.Errorf("body mismatch")
	}
}

func TestUnknownTypeRoundTrip(t *testing.T) {
	rec := &Record{
		Timestamp: testTime,
		Type:      TypeOSPFv2,
		Subtype:   0,
		Body:      RawBody{1, 2, 3, 4},
	}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Body, rec.Body) {
		t.Errorf("raw body mismatch: %+v", got.Body)
	}
}

func TestReaderEOFAndTruncation(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want EOF", err)
	}
	// Truncated header.
	r = NewReader(bytes.NewReader([]byte{0, 1, 2}))
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated header: err = %v", err)
	}
	// Header promising more body than present.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(&Record{Timestamp: testTime, Type: TypeOSPFv2, Body: RawBody{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	r = NewReader(bytes.NewReader(b[:len(b)-1]))
	if _, err := r.Next(); err == nil {
		t.Error("truncated body should fail")
	}
}

func TestReaderMultipleRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		err := w.WriteRecord(&Record{
			Timestamp: testTime.Add(time.Duration(i) * time.Minute),
			Type:      TypeOSPFv2,
			Subtype:   uint16(i),
			Body:      RawBody{byte(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < 5; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Subtype != uint16(i) || !reflect.DeepEqual(rec.Body, RawBody{byte(i)}) {
			t.Errorf("record %d = %+v", i, rec)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestRIBWriterReader(t *testing.T) {
	peers := []Peer{
		{BGPID: addr("10.0.0.1"), Addr: addr("203.0.113.1"), ASN: 7018},
		{BGPID: addr("10.0.0.2"), Addr: addr("203.0.113.2"), ASN: 3356},
	}
	var buf bytes.Buffer
	rw := NewRIBWriter(&buf, addr("198.51.100.1"), "test view", peers, testTime)
	if err := rw.WritePrefix(prefix("192.0.2.0/24"), []RIBEntry{
		{PeerIndex: 0, Originated: testTime, Attrs: testAttrs(7018, 64500)},
		{PeerIndex: 1, Originated: testTime, Attrs: testAttrs(3356, 64500)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rw.WritePrefix(prefix("198.51.100.0/24"), []RIBEntry{
		{PeerIndex: 1, Originated: testTime, Attrs: testAttrs(3356, 174, 64501)},
	}); err != nil {
		t.Fatal(err)
	}

	rr := NewRIBReader(&buf)
	var got []struct {
		prefix netip.Prefix
		asn    uint32
		origin uint32
	}
	for {
		e, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		path := e.RIBEntry.Attrs.Path().Flatten()
		got = append(got, struct {
			prefix netip.Prefix
			asn    uint32
			origin uint32
		}{e.Prefix, e.Peer.ASN, path[len(path)-1]})
	}
	if len(got) != 3 {
		t.Fatalf("flattened %d entries, want 3", len(got))
	}
	if got[0].asn != 7018 || got[1].asn != 3356 || got[2].asn != 3356 {
		t.Errorf("peer ASNs wrong: %+v", got)
	}
	if got[2].origin != 64501 {
		t.Errorf("origin = %d", got[2].origin)
	}
	if rr.PeerIndex() == nil || rr.PeerIndex().ViewName != "test view" {
		t.Error("peer index not exposed")
	}
}

func TestRIBWriterValidatesPeerIndex(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRIBWriter(&buf, addr("198.51.100.1"), "v", []Peer{{BGPID: addr("10.0.0.1"), Addr: addr("203.0.113.1"), ASN: 1}}, testTime)
	err := rw.WritePrefix(prefix("192.0.2.0/24"), []RIBEntry{{PeerIndex: 5, Attrs: testAttrs(1)}})
	if err == nil {
		t.Error("out-of-range peer index should fail")
	}
}

func TestRIBWriterFlushWritesIndex(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRIBWriter(&buf, addr("198.51.100.1"), "v", nil, testTime)
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Body.(*PeerIndexTable); !ok {
		t.Errorf("flushed record is %T", rec.Body)
	}
}

func TestRIBReaderEntryBeforeIndexFails(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	err := w.WriteRecord(&Record{
		Timestamp: testTime,
		Type:      TypeTableDumpV2,
		Subtype:   SubtypeRIBIPv4Unicast,
		Body: &RIB{
			Prefix:  prefix("192.0.2.0/24"),
			Entries: []RIBEntry{{PeerIndex: 0, Attrs: testAttrs(1)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRIBReader(&buf).Next(); err == nil {
		t.Error("entry before index table should fail")
	}
}

func TestRIBReaderSkipsUnrelatedRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(&Record{Timestamp: testTime, Type: TypeOSPFv2, Body: RawBody{9}}); err != nil {
		t.Fatal(err)
	}
	rw := NewRIBWriter(&buf, addr("198.51.100.1"), "v",
		[]Peer{{BGPID: addr("10.0.0.1"), Addr: addr("203.0.113.1"), ASN: 1}}, testTime)
	if err := rw.WritePrefix(prefix("192.0.2.0/24"),
		[]RIBEntry{{PeerIndex: 0, Originated: testTime, Attrs: testAttrs(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	e, err := NewRIBReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if e.Peer.ASN != 1 {
		t.Errorf("entry peer = %+v", e.Peer)
	}
}

// TestRIBReaderRefusesAStreamWithoutPeerIndex: an empty stream, a
// TABLE_DUMP (v1) dump and a BGP4MP trace hold no PEER_INDEX_TABLE, so
// the reader ends them with an error rather than an empty snapshot's
// io.EOF; a snapshot with a peer table and no prefix still ends in EOF.
func TestRIBReaderRefusesAStreamWithoutPeerIndex(t *testing.T) {
	records := map[string]*Record{
		"TABLE_DUMP": {Timestamp: testTime, Type: TypeTableDump, Subtype: SubtypeAFIIPv4, Body: &TableDump{
			Prefix: prefix("10.1.0.0/16"), PeerAddr: addr("203.0.113.9"), PeerAS: 701, Attrs: testAttrs(701, 174),
		}},
		"BGP4MP": {Timestamp: testTime, Type: TypeBGP4MP, Subtype: SubtypeStateChangeAS4, Body: &BGP4MPStateChange{
			PeerAS: 1, LocalAS: 2, PeerAddr: addr("203.0.113.1"), LocalAddr: addr("198.51.100.1"), AS4: true,
			OldState: StateOpenConfirm, NewState: StateEstablished,
		}},
	}
	streams := map[string][]byte{"empty": nil}
	for name, rec := range records {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
		streams[name] = buf.Bytes()
	}
	for name, stream := range streams {
		if _, err := NewRIBReader(bytes.NewReader(stream)).Next(); err == nil || err == io.EOF {
			t.Errorf("%s stream: Next = %v, want an error other than io.EOF", name, err)
		}
	}

	var buf bytes.Buffer
	if err := NewRIBWriter(&buf, addr("198.51.100.1"), "v", nil, testTime).Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRIBReader(&buf).Next(); err != io.EOF {
		t.Errorf("peer table only: Next = %v, want io.EOF", err)
	}
}

func TestParseErrorsTruncatedBodies(t *testing.T) {
	cases := []struct {
		sub  uint16
		body []byte
	}{
		{SubtypePeerIndexTable, []byte{1, 2, 3}},
		{SubtypePeerIndexTable, []byte{1, 2, 3, 4, 0, 9}}, // name longer than data
		{SubtypeRIBIPv4Unicast, []byte{0, 0}},
		{SubtypeRIBIPv4Unicast, []byte{0, 0, 0, 1, 24, 10, 0}}, // truncated prefix+count
	}
	for i, c := range cases {
		if _, err := decodeBody(TypeTableDumpV2, c.sub, c.body); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := decodeBody(TypeBGP4MP, SubtypeMessageAS4, []byte{1, 2}); err == nil {
		t.Error("truncated BGP4MP should fail")
	}
	if _, err := decodeBody(TypeBGP4MP, SubtypeStateChangeAS4, make([]byte, 20)); err == nil {
		t.Error("truncated state change should fail")
	}
	if _, err := decodeBody(TypeTableDump, SubtypeAFIIPv4, make([]byte, 10)); err == nil {
		t.Error("truncated TABLE_DUMP should fail")
	}
}

func TestWriterRejectsOversizedRecord(t *testing.T) {
	w := NewWriter(io.Discard)
	err := w.WriteRecord(&Record{Timestamp: testTime, Type: TypeOSPFv2, Body: RawBody(make([]byte, maxRecordLen+1))})
	if err == nil {
		t.Error("oversized record should fail")
	}
}

func TestReaderRejectsOversizedLength(t *testing.T) {
	hdr := make([]byte, headerLen)
	hdr[8] = 0xff // length = 0xff000000
	hdr[9] = 0xff
	hdr[10] = 0xff
	hdr[11] = 0xff
	r := NewReader(bytes.NewReader(hdr))
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("oversized length: err = %v", err)
	}
}

func TestReaderTransparentGzip(t *testing.T) {
	var plain bytes.Buffer
	w := NewWriter(&plain)
	if err := w.WriteRecord(&Record{Timestamp: testTime, Type: TypeOSPFv2, Subtype: 3, Body: RawBody{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&gz).Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Subtype != 3 || !reflect.DeepEqual(rec.Body, RawBody{1, 2, 3}) {
		t.Errorf("gzip record = %+v", rec)
	}
	// Corrupt gzip header surfaces on Next.
	bad := append([]byte{0x1f, 0x8b, 0xff}, make([]byte, 16)...)
	if _, err := NewReader(bytes.NewReader(bad)).Next(); err == nil {
		t.Error("bad gzip stream should fail")
	}
}
