package paths

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/mrt"
)

func mkPath(asns ...uint32) Path {
	return Path{Collector: "c1", Prefix: netip.MustParsePrefix("192.0.2.0/24"), ASNs: asns}
}

func TestPathEndpoints(t *testing.T) {
	p := mkPath(10, 20, 30)
	if p.VP() != 10 || p.Origin() != 30 {
		t.Errorf("VP=%d Origin=%d", p.VP(), p.Origin())
	}
	var empty Path
	if empty.VP() != 0 || empty.Origin() != 0 {
		t.Error("empty path endpoints should be 0")
	}
}

func TestNewLinkNormalizes(t *testing.T) {
	if NewLink(5, 3) != (Link{3, 5}) {
		t.Error("link not normalized")
	}
	if NewLink(3, 5) != NewLink(5, 3) {
		t.Error("link not symmetric")
	}
	if NewLink(3, 5).String() != "3-5" {
		t.Errorf("String = %q", NewLink(3, 5).String())
	}
}

func TestLinkQuickNormalized(t *testing.T) {
	f := func(a, b uint32) bool {
		l := NewLink(a, b)
		return l.A <= l.B && l == NewLink(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildDataset() *Dataset {
	ds := &Dataset{}
	ds.Add(mkPath(10, 20, 30))
	ds.Add(mkPath(10, 20, 40))
	ds.Add(mkPath(11, 20, 30))
	return ds
}

func TestLinks(t *testing.T) {
	links := buildDataset().Links()
	if links[NewLink(10, 20)] != 2 {
		t.Errorf("10-20 count = %d", links[NewLink(10, 20)])
	}
	if links[NewLink(20, 30)] != 2 || links[NewLink(20, 40)] != 1 || links[NewLink(11, 20)] != 1 {
		t.Errorf("links = %v", links)
	}
	if len(links) != 4 {
		t.Errorf("link count = %d", len(links))
	}
}

func TestSortedLinks(t *testing.T) {
	links := buildDataset().Links()
	sorted := SortedLinks(links)
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if a.A > b.A || (a.A == b.A && a.B >= b.B) {
			t.Fatalf("links not sorted: %v before %v", a, b)
		}
	}
}

func TestDegreesAndTransitDegrees(t *testing.T) {
	ds := buildDataset()
	deg := ds.Degrees()
	if deg[20] != 4 {
		t.Errorf("degree(20) = %d, want 4", deg[20])
	}
	if deg[10] != 1 || deg[30] != 1 {
		t.Errorf("edge degrees wrong: %v", deg)
	}
	td := ds.TransitDegrees()
	if td[20] != 4 {
		t.Errorf("transit degree(20) = %d, want 4", td[20])
	}
	if td[10] != 0 || td[30] != 0 {
		t.Errorf("stub transit degrees should be 0: %v", td)
	}
}

func TestVPsAndASes(t *testing.T) {
	ds := buildDataset()
	vps := ds.VPs()
	if vps[10] != 2 || vps[11] != 1 {
		t.Errorf("VPs = %v", vps)
	}
	ases := ds.ASes()
	for _, a := range []uint32{10, 11, 20, 30, 40} {
		if !ases[a] {
			t.Errorf("AS %d missing", a)
		}
	}
	if len(ases) != 5 {
		t.Errorf("AS count = %d", len(ases))
	}
}

func TestMeanPathLength(t *testing.T) {
	ds := buildDataset()
	if got := ds.MeanPathLength(); got != 2 {
		t.Errorf("mean path length = %v", got)
	}
	var empty Dataset
	if empty.MeanPathLength() != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestSanitizePrepending(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 20, 20, 20, 30))
	out, stats := Sanitize(ds, SanitizeOptions{})
	if stats.PrependingRemoved != 1 || stats.Kept != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if !reflect.DeepEqual(out.Paths[0].ASNs, []uint32{10, 20, 30}) {
		t.Errorf("path = %v", out.Paths[0].ASNs)
	}
}

func TestSanitizeLoop(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 20, 30, 20, 40))
	out, stats := Sanitize(ds, SanitizeOptions{})
	if stats.LoopDiscarded != 1 || out.NumPaths() != 0 {
		t.Errorf("loop not discarded: %+v", stats)
	}
}

func TestSanitizeReserved(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 64512, 30)) // private ASN
	ds.Add(mkPath(10, 23456, 30)) // AS_TRANS
	out, stats := Sanitize(ds, SanitizeOptions{})
	if stats.ReservedDiscarded != 2 || out.NumPaths() != 0 {
		t.Errorf("reserved not discarded: %+v", stats)
	}
}

func TestSanitizeIXPSplice(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 555, 30)) // 555 is an IXP route server
	out, stats := Sanitize(ds, SanitizeOptions{IXPASes: map[uint32]bool{555: true}})
	if stats.IXPSpliced != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if !reflect.DeepEqual(out.Paths[0].ASNs, []uint32{10, 30}) {
		t.Errorf("path = %v", out.Paths[0].ASNs)
	}
}

func TestSanitizeTooShort(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10))
	ds.Add(mkPath(10, 10)) // collapses to single hop
	out, stats := Sanitize(ds, SanitizeOptions{})
	if stats.TooShort != 2 || out.NumPaths() != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSanitizeDuplicates(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 20, 30))
	ds.Add(mkPath(10, 20, 30))
	out, stats := Sanitize(ds, SanitizeOptions{})
	if stats.Duplicates != 1 || out.NumPaths() != 1 {
		t.Errorf("dedup failed: %+v", stats)
	}
	// Different prefixes are not duplicates.
	ds2 := &Dataset{}
	p1 := mkPath(10, 20, 30)
	p2 := mkPath(10, 20, 30)
	p2.Prefix = netip.MustParsePrefix("198.51.100.0/24")
	ds2.Add(p1)
	ds2.Add(p2)
	out, _ = Sanitize(ds2, SanitizeOptions{})
	if out.NumPaths() != 2 {
		t.Error("different prefixes wrongly deduped")
	}
}

func TestSanitizeIdempotent(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 20, 20, 30))
	ds.Add(mkPath(11, 30, 40))
	once, _ := Sanitize(ds, SanitizeOptions{})
	twice, stats := Sanitize(once, SanitizeOptions{})
	if !reflect.DeepEqual(once.Paths, twice.Paths) {
		t.Error("sanitize not idempotent")
	}
	if stats.PrependingRemoved != 0 || stats.LoopDiscarded != 0 || stats.Duplicates != 0 {
		t.Errorf("second pass should be clean: %+v", stats)
	}
}

func TestSanitizeInvariantsQuick(t *testing.T) {
	// Property: sanitized paths have no consecutive repeats, no loops,
	// no reserved ASNs.
	f := func(raw [][]uint32) bool {
		ds := &Dataset{}
		for _, asns := range raw {
			// Constrain to plausible small ASNs, with some reserved mixed in.
			path := make([]uint32, 0, len(asns))
			for _, a := range asns {
				path = append(path, a%70000)
			}
			ds.Add(Path{Collector: "q", ASNs: path})
		}
		out, _ := Sanitize(ds, SanitizeOptions{})
		for _, p := range out.Paths {
			seen := map[uint32]bool{}
			for i, a := range p.ASNs {
				if seen[a] {
					return false
				}
				seen[a] = true
				if i > 0 && p.ASNs[i-1] == a {
					return false
				}
				if a == 0 || a == 23456 || (a >= 64496 && a <= 65551) {
					return false
				}
			}
			if len(p.ASNs) < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTextCodecRoundTrip(t *testing.T) {
	ds := buildDataset()
	noPrefix := Path{Collector: "c2", ASNs: []uint32{1, 2}}
	ds.Add(noPrefix)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Paths, ds.Paths) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got.Paths, ds.Paths)
	}
}

// TestWriteRefusesWhatReadCannotReturn: the writer and the reader agree
// on what a file can carry. Whatever Write accepts Read returns, row for
// row; a row Read would drop, trim or refuse is an error from Write,
// which by then has written the rows before it whole and nothing of it.
func TestWriteRefusesWhatReadCannotReturn(t *testing.T) {
	for _, c := range []struct {
		why string
		row Path
	}{
		{"a comment line: Read returned no row and no error", Path{Collector: "#rv1", ASNs: []uint32{1, 2}}},
		{"a fourth field", Path{Collector: "a|b", ASNs: []uint32{1, 2}}},
		{"two lines", Path{Collector: "rv\n", ASNs: []uint32{1, 2}}},
		{"a line end", Path{Collector: "r\rv", ASNs: []uint32{1, 2}}},
		{"read back as rv", Path{Collector: " rv", ASNs: []uint32{1, 2}}},
		{"read back as rv", Path{Collector: "\u00a0rv", ASNs: []uint32{1, 2}}},
		{"trailing white space", Path{Collector: "rv\t", ASNs: []uint32{1, 2}}},
		{"an empty AS path", Path{Collector: "rv"}},
	} {
		var buf bytes.Buffer
		err := Write(&buf, &Dataset{Paths: []Path{{Collector: "ok", ASNs: []uint32{7}}, c.row}})
		if err == nil || !strings.Contains(err.Error(), "row 1") {
			t.Errorf("collector %q, %d hops (%s): error = %v, want one naming row 1", c.row.Collector, len(c.row.ASNs), c.why, err)
		}
		if got := buf.String(); got != "ok||7\n" {
			t.Errorf("collector %q (%s): wrote %q, want row 0 alone", c.row.Collector, c.why, got)
		}
	}

	// Random corpora with collectors drawn from the bytes that matter to
	// a line and a hop list emptied now and then.
	alphabet := []string{"r", "v", "1", "|", "#", " ", "\t", "\n", "\r", "\u00a0", "\u0085", "\xff"}
	var refused, accepted int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := randomCorpus(rng, 1+rng.Intn(40))
		for i := range ds.Paths {
			p := &ds.Paths[i]
			if !p.Prefix.IsValid() {
				p.Prefix = netip.Prefix{} // an invalid prefix is written as none
			}
			switch rng.Intn(40) {
			case 0:
				p.ASNs = nil
			case 1, 2, 3, 4:
				p.Collector = ""
				for n := rng.Intn(4); n > 0; n-- {
					p.Collector += alphabet[rng.Intn(len(alphabet))]
				}
			}
		}
		var buf bytes.Buffer
		err := Write(&buf, ds)
		got, rerr := Read(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("seed %d: Write (error %v) left a file Read refuses: %v\n%q", seed, err, rerr, buf.Bytes())
		}
		if err == nil {
			accepted++
			if !reflect.DeepEqual(got.Paths, ds.Paths) {
				t.Fatalf("seed %d: round trip:\ngot  %+v\nwant %+v", seed, got.Paths, ds.Paths)
			}
			continue
		}
		// The file is the rows before the refused one, and that one,
		// alone, is refused too.
		refused++
		n := len(got.Paths)
		if n >= len(ds.Paths) || n > 0 && !reflect.DeepEqual(got.Paths, ds.Paths[:n]) {
			t.Fatalf("seed %d: Write failed with %v having written\n%q\nnot a prefix of %+v", seed, err, buf.Bytes(), ds.Paths)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("row %d:", n)) {
			t.Fatalf("seed %d: error %q, want it to name row %d", seed, err, n)
		}
		if Write(io.Discard, &Dataset{Paths: ds.Paths[n : n+1]}) == nil {
			t.Fatalf("seed %d: row %d (%+v) stopped the corpus but is written alone", seed, n, ds.Paths[n])
		}
	}
	if refused < 50 || accepted < 50 {
		t.Errorf("%d corpora refused and %d accepted: the draw does not cover both", refused, accepted)
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	in := "# header\n\nc1|192.0.2.0/24|10 20 30\n"
	ds, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumPaths() != 1 || ds.Paths[0].VP() != 10 {
		t.Errorf("parsed %+v", ds.Paths)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"c1|192.0.2.0/24",             // missing field
		"c1|not-a-prefix|10 20",       // bad prefix
		"c1|192.0.2.0/24|10 x 30",     // bad ASN
		"c1|192.0.2.0/24|99999999999", // ASN overflow
		"c1|192.0.2.0/24|",            // empty path
		"c1|192.0.2.0/24|10 20|extra", // too many fields
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d (%q) should fail", i, c)
		}
	}
}

func TestFromMRT(t *testing.T) {
	ts := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	peers := []mrt.Peer{
		{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("203.0.113.1"), ASN: 10},
		{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("203.0.113.2"), ASN: 11},
	}
	attrs := func(asns ...uint32) *bgp.PathAttributes {
		return &bgp.PathAttributes{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Sequence(asns...),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		}
	}
	var buf bytes.Buffer
	rw := mrt.NewRIBWriter(&buf, netip.MustParseAddr("198.51.100.1"), "v", peers, ts)
	pfx := netip.MustParsePrefix("192.0.2.0/24")
	if err := rw.WritePrefix(pfx, []mrt.RIBEntry{
		{PeerIndex: 0, Originated: ts, Attrs: attrs(10, 20, 30)},
		{PeerIndex: 1, Originated: ts, Attrs: attrs(20, 30)}, // missing VP hop → prepended
	}); err != nil {
		t.Fatal(err)
	}
	// A path with an AS_SET should be dropped.
	setAttrs := attrs(10, 20)
	setAttrs.ASPath = append(setAttrs.ASPath, bgp.PathSegment{Type: bgp.ASSet, ASNs: []uint32{30, 40}})
	if err := rw.WritePrefix(netip.MustParsePrefix("198.51.100.0/24"), []mrt.RIBEntry{
		{PeerIndex: 0, Originated: ts, Attrs: setAttrs},
	}); err != nil {
		t.Fatal(err)
	}

	ds, stats, err := FromMRT(&buf, "rv-test")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 3 || stats.Unusable != 1 || stats.VPPrepended != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if ds.NumPaths() != 2 {
		t.Fatalf("paths = %d", ds.NumPaths())
	}
	if !reflect.DeepEqual(ds.Paths[0].ASNs, []uint32{10, 20, 30}) {
		t.Errorf("path0 = %v", ds.Paths[0].ASNs)
	}
	if !reflect.DeepEqual(ds.Paths[1].ASNs, []uint32{11, 20, 30}) {
		t.Errorf("path1 (VP-prepended) = %v", ds.Paths[1].ASNs)
	}
	if ds.Paths[0].Collector != "rv-test" || ds.Paths[0].Prefix != pfx {
		t.Errorf("metadata wrong: %+v", ds.Paths[0])
	}
}
