package paths

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/mrt"
)

// TestSequences walks the table through its whole contract: dense ids
// in birth order, a held sequence found by value, ownership of the hops,
// and a released id going to the next new sequence.
func TestSequences(t *testing.T) {
	seqs := NewSequences()
	a, b, c := []uint32{10, 20, 30}, []uint32{10, 20}, []uint32{10, 20, 30, 40}
	for want, hops := range [][]uint32{a, b, c} {
		if id, fresh := seqs.Intern(hops, false); id != int32(want) || !fresh {
			t.Fatalf("Intern(%v) = %d, %v; want a fresh id %d", hops, id, fresh, want)
		}
	}
	if id, fresh := seqs.Intern(slices.Clone(b), false); id != 1 || fresh {
		t.Errorf("Intern of a held sequence = %d, %v; want 1, false", id, fresh)
	}
	if &seqs.Hops(0)[0] != &a[0] || seqs.Len() != 3 {
		t.Errorf("table holds %d sequences and a copy of a; want 3 and a itself", seqs.Len())
	}

	seqs.Release(1)
	if seqs.Hops(1) != nil || seqs.Len() != 2 {
		t.Errorf("released sequence is still held: hops %v, len %d", seqs.Hops(1), seqs.Len())
	}
	scratch := []uint32{10, 20, 31} // one key byte from a
	if id, fresh := seqs.Intern(scratch, true); id != 1 || !fresh {
		t.Errorf("Intern after a release = %d, %v; want the released id 1", id, fresh)
	}
	scratch[2] = 99 // the caller's to reuse: the table kept a copy
	if id, fresh := seqs.Intern([]uint32{10, 20, 31}, false); id != 1 || fresh || seqs.Hops(1)[2] != 31 {
		t.Errorf("scratch hops were kept by reference: Intern = %d, %v, held %v", id, fresh, seqs.Hops(1))
	}
	if id, fresh := seqs.Intern(b, false); id != 3 || !fresh {
		t.Errorf("the released sequence came back as %d, %v; want a fresh id 3, none being free", id, fresh)
	}
}

func TestWireHops(t *testing.T) {
	set := bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint32{10, 20}}, {Type: bgp.ASSet, ASNs: []uint32{30, 40}}}
	for _, tc := range []struct {
		name string
		path bgp.ASPath
		want []uint32
		pre  bool
	}{
		{"as sent", bgp.Sequence(10, 20, 30), []uint32{10, 20, 30}, false},
		{"peer missing", bgp.Sequence(20, 30), []uint32{10, 20, 30}, true},
		{"as_set", set, nil, false},
		{"empty", bgp.ASPath{}, nil, false},
		{"empty segment", bgp.ASPath{{Type: bgp.ASSequence}}, nil, false},
	} {
		hops, pre := WireHops(10, tc.path)
		if !slices.Equal(hops, tc.want) || (hops == nil) != (tc.want == nil) || pre != tc.pre {
			t.Errorf("%s: WireHops = %v, %v; want %v, %v", tc.name, hops, pre, tc.want, tc.pre)
		}
	}
}

// TestRIBHoldsLiveRoutesOnly: the table is bounded by the routes that
// are live — re-announcements replace, withdrawals and unusable paths
// delete — and its dataset is ordered whatever the arrival order.
func TestRIBHoldsLiveRoutesOnly(t *testing.T) {
	p, q := netip.MustParsePrefix("192.0.2.0/24"), netip.MustParsePrefix("198.51.100.0/24")
	rib := NewRIB()
	for i := 0; i < 50; i++ {
		rib.Announce("rc", 10, q, []uint32{10, uint32(100 + i), 30})
		rib.Announce("rc", 10, p, []uint32{10, 20, 30})
	}
	ds := rib.Dataset()
	if len(rib.routes) != 2 || ds.NumPaths() != 2 || ds.Paths[0].Prefix != p || ds.Paths[1].ASNs[1] != 149 {
		t.Fatalf("after 50 re-announcements: %+v, want the two latest routes", ds.Paths)
	}
	rib.Announce("rc2", 10, p, []uint32{10, 20, 30})
	rib.Announce("rc", 11, p, []uint32{11, 20, 30})
	if got := rib.Dataset(); got.NumPaths() != 4 || got.Paths[2].VP() != 11 || got.Paths[3].Collector != "rc2" {
		t.Errorf("dataset %+v: want (collector, vp, prefix) order", got.Paths)
	}
	rib.Withdraw("rc", 10, p)
	rib.Withdraw("rc", 10, p)      // nothing left to withdraw
	rib.Announce("rc", 10, q, nil) // an unusable path replaces the route with nothing
	rib.Withdraw("rc", 11, p)
	rib.Withdraw("rc2", 10, p)
	if got := rib.Dataset().NumPaths(); got != 0 || len(rib.routes) != 0 {
		t.Errorf("drained table holds %d paths, %d routes", got, len(rib.routes))
	}
}

// updateRecord frames one UPDATE from peer as a BGP4MP record.
func updateRecord(t *testing.T, buf *bytes.Buffer, peer uint32, upd *bgp.Update) {
	t.Helper()
	upd.Attrs.NextHop = netip.MustParseAddr("192.0.2.1")
	msg, err := bgp.EncodeUpdate(upd, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := mrt.NewWriter(buf).WriteRecord(&mrt.Record{
		Timestamp: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC),
		Type:      mrt.TypeBGP4MP,
		Subtype:   mrt.SubtypeMessageAS4,
		Body: &mrt.BGP4MPMessage{
			PeerAS: peer, LocalAS: 64497, AS4: true, Data: msg,
			PeerAddr: netip.MustParseAddr("203.0.113.1"), LocalAddr: netip.MustParseAddr("198.51.100.2"),
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFromMRTUpdatesUnusablePathReplacesRoute: a re-announcement whose
// AS_PATH carries an AS_SET, or no hops at all, still replaces the
// peer's previous route to the prefix — with nothing.
func TestFromMRTUpdatesUnusablePathReplacesRoute(t *testing.T) {
	p, q, r := netip.MustParsePrefix("192.0.2.0/24"), netip.MustParsePrefix("198.51.100.0/24"), netip.MustParsePrefix("203.0.113.0/24")
	var buf bytes.Buffer
	updateRecord(t, &buf, 10, &bgp.Update{NLRI: []netip.Prefix{p, q, r}, Attrs: bgp.PathAttributes{ASPath: bgp.Sequence(10, 20, 30)}})
	updateRecord(t, &buf, 10, &bgp.Update{NLRI: []netip.Prefix{p}, Attrs: bgp.PathAttributes{
		ASPath: bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint32{10, 20}}, {Type: bgp.ASSet, ASNs: []uint32{30, 40}}},
	}})
	updateRecord(t, &buf, 10, &bgp.Update{NLRI: []netip.Prefix{r}})
	ds, st, err := FromMRTUpdates(&buf, "trace")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumPaths() != 1 || ds.Paths[0].Prefix != q {
		t.Errorf("trace converges to %+v, want the route to %v alone", ds.Paths, q)
	}
	if st.Updates != 3 || st.Announced != 3 || st.Unusable != 2 {
		t.Errorf("stats = %+v, want 3 updates, 3 prefixes announced and 2 cleared", st)
	}
}
