package bgpsim

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// toy builds the shared 7-AS test topology:
//
//	  1 ══ 2        tier-1 clique (peers)
//	 /|     \
//	3 |      4      transit (3,4); 3-4 peer
//	| \ \    |
//	5    6   7      stubs: 5←3, 6←{1,3}, 7←4
func toy(t *testing.T) *topology.Topology {
	t.Helper()
	topo := topology.New()
	topo.AddAS(&topology.AS{ASN: 1, Class: topology.ClassTier1})
	topo.AddAS(&topology.AS{ASN: 2, Class: topology.ClassTier1})
	topo.AddAS(&topology.AS{ASN: 3, Class: topology.ClassTransit})
	topo.AddAS(&topology.AS{ASN: 4, Class: topology.ClassTransit})
	topo.AddAS(&topology.AS{ASN: 5, Class: topology.ClassStub})
	topo.AddAS(&topology.AS{ASN: 6, Class: topology.ClassStub})
	topo.AddAS(&topology.AS{ASN: 7, Class: topology.ClassStub})
	steps := []error{
		topo.AddP2P(1, 2),
		topo.AddP2C(1, 3),
		topo.AddP2C(2, 4),
		topo.AddP2P(3, 4),
		topo.AddP2C(3, 5),
		topo.AddP2C(1, 6),
		topo.AddP2C(3, 6),
		topo.AddP2C(4, 7),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func pathTo(t *testing.T, topo *topology.Topology, src, dst uint32) []uint32 {
	t.Helper()
	sim := New(topo)
	routes, err := sim.RoutesTo(dst)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Path(routes, src)
}

func TestCustomerRoutePreferred(t *testing.T) {
	topo := toy(t)
	// 1 reaches 6 directly (customer), not via 3.
	got := pathTo(t, topo, 1, 6)
	if !reflect.DeepEqual(got, []uint32{1, 6}) {
		t.Errorf("path 1->6 = %v", got)
	}
	// 3 reaches 7 via its peer 4 (peer beats provider route via 1-2-4).
	got = pathTo(t, topo, 3, 7)
	if !reflect.DeepEqual(got, []uint32{3, 4, 7}) {
		t.Errorf("path 3->7 = %v", got)
	}
}

func TestProviderRouteWhenNoOther(t *testing.T) {
	topo := toy(t)
	// 5 reaches 7 only via provider 3 (then peer 4).
	got := pathTo(t, topo, 5, 7)
	if !reflect.DeepEqual(got, []uint32{5, 3, 4, 7}) {
		t.Errorf("path 5->7 = %v", got)
	}
	// 7 reaches 5: only route is via provider 4, peer 3, customer 5.
	got = pathTo(t, topo, 7, 5)
	if !reflect.DeepEqual(got, []uint32{7, 4, 3, 5}) {
		t.Errorf("path 7->5 = %v", got)
	}
}

func TestPeerOneHopOnly(t *testing.T) {
	topo := toy(t)
	// 2's route to 5: cannot use 2~1 peer then 1>3>5? It can: peer route
	// via 1 (1 has customer route to 5 via 3). Length 2~1-3-5 = 3 hops.
	got := pathTo(t, topo, 2, 5)
	if !reflect.DeepEqual(got, []uint32{2, 1, 3, 5}) {
		t.Errorf("path 2->5 = %v", got)
	}
	// But 4 must NOT route to 6 via peer 3's PEER route; 4's options:
	// peer 3 has customer route to 6 (3>6), so 4-3-6 is legal.
	got = pathTo(t, topo, 4, 6)
	if !reflect.DeepEqual(got, []uint32{4, 3, 6}) {
		t.Errorf("path 4->6 = %v", got)
	}
}

func TestTieBreakLowestNextHop(t *testing.T) {
	// 6 is multihomed to 1 and 3; destination 2 is reachable from 6 via
	// provider 1 (6-1~2, len 2) or provider 3 (6-3-1~2, len 3). Shorter
	// wins regardless of ASN.
	topo := toy(t)
	got := pathTo(t, topo, 6, 2)
	if !reflect.DeepEqual(got, []uint32{6, 1, 2}) {
		t.Errorf("path 6->2 = %v", got)
	}
}

func TestNoRouteAcrossDoublePeering(t *testing.T) {
	// Build: two tier1s NOT peered with each other, each with one stub
	// customer; a path between the stubs would need two peer hops.
	topo := topology.New()
	topo.AddAS(&topology.AS{ASN: 1, Class: topology.ClassTransit})
	topo.AddAS(&topology.AS{ASN: 2, Class: topology.ClassTransit})
	topo.AddAS(&topology.AS{ASN: 3, Class: topology.ClassTransit})
	topo.AddAS(&topology.AS{ASN: 10, Class: topology.ClassStub})
	topo.AddAS(&topology.AS{ASN: 20, Class: topology.ClassStub})
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(topo.AddP2P(1, 2))
	must(topo.AddP2P(2, 3))
	must(topo.AddP2C(1, 10))
	must(topo.AddP2C(3, 20))
	sim := New(topo)
	routes, err := sim.RoutesTo(20)
	if err != nil {
		t.Fatal(err)
	}
	if p := sim.Path(routes, 10); p != nil {
		t.Errorf("path 10->20 should not exist (double peering), got %v", p)
	}
	if p := sim.Path(routes, 2); p == nil {
		t.Error("peer 3~2 should give 2 a route to 20")
	}
}

func TestRoutesToUnknownDestination(t *testing.T) {
	sim := New(toy(t))
	if _, err := sim.RoutesTo(999); err == nil {
		t.Error("unknown destination should fail")
	}
}

func TestAllPathsValleyFree(t *testing.T) {
	p := topology.DefaultParams(21)
	p.ASes = 400
	topo := topology.Generate(p)
	opts := DefaultOptions(21)
	opts.NumVPs = 10
	// Disable artifacts so every path must be policy-compliant.
	opts.PrependRate, opts.PoisonRate, opts.PrivateLeakRate = 0, 0, 0
	res, err := Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.NumPaths() == 0 {
		t.Fatal("no paths produced")
	}
	for _, path := range res.Dataset.Paths {
		if !ValleyFree(topo, path.ASNs) {
			t.Fatalf("path %v is not valley-free", path.ASNs)
		}
	}
}

func TestValleyFreeDetectsValley(t *testing.T) {
	topo := toy(t)
	if !ValleyFree(topo, []uint32{5, 3, 4, 7}) {
		t.Error("legal path flagged")
	}
	// 3-5 down then 5... 5 has no other links; craft: 1>3>5 then back up
	// is impossible; instead use 3>6<1: down then up = valley.
	if ValleyFree(topo, []uint32{3, 6, 1}) {
		t.Error("valley (down then up) accepted")
	}
	// Two peer hops: 4~3 then 3~? 3 peers only with 4. Use 1~2 and 3~4:
	// path 2~1>3~4 = peer, down, peer — invalid.
	if ValleyFree(topo, []uint32{2, 1, 3, 4}) {
		t.Error("double peering accepted")
	}
	// Unlinked pair.
	if ValleyFree(topo, []uint32{5, 7}) {
		t.Error("unlinked hop accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	p := topology.DefaultParams(5)
	p.ASes = 200
	topo := topology.Generate(p)
	a, err := Run(topo, DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(topo, DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Dataset.Paths, b.Dataset.Paths) {
		t.Error("same seed produced different corpora")
	}
	if !reflect.DeepEqual(a.VPs, b.VPs) || !reflect.DeepEqual(a.PartialVPs, b.PartialVPs) {
		t.Error("VP selection not deterministic")
	}
}

func TestPartialFeedsSeeOnlyCustomerRoutes(t *testing.T) {
	p := topology.DefaultParams(31)
	p.ASes = 300
	topo := topology.Generate(p)
	opts := DefaultOptions(31)
	opts.NumVPs = 12
	opts.PartialFeedFrac = 1 // every VP partial
	opts.PrependRate, opts.PoisonRate, opts.PrivateLeakRate = 0, 0, 0
	res, err := Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every path from a partial VP must start with a customer hop.
	for _, path := range res.Dataset.Paths {
		if len(path.ASNs) < 2 {
			continue
		}
		if rel := topo.Rel(path.ASNs[0], path.ASNs[1]); rel != topology.P2C {
			t.Fatalf("partial VP %d exported non-customer route (first hop %v)", path.ASNs[0], rel)
		}
	}
	// A full-feed run must see strictly more paths.
	opts2 := opts
	opts2.PartialFeedFrac = 0
	res2, err := Run(topo, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Dataset.NumPaths() <= res.Dataset.NumPaths() {
		t.Errorf("full feeds (%d paths) should exceed partial feeds (%d)",
			res2.Dataset.NumPaths(), res.Dataset.NumPaths())
	}
}

func TestArtifactInjection(t *testing.T) {
	p := topology.DefaultParams(17)
	p.ASes = 300
	topo := topology.Generate(p)
	opts := DefaultOptions(17)
	opts.NumVPs = 10
	opts.PrependRate = 0.3
	opts.PoisonRate = 0.01
	opts.PrivateLeakRate = 0.01
	res, err := Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifacts.Prepended == 0 {
		t.Error("no prepending injected")
	}
	if res.Artifacts.Poisoned == 0 {
		t.Error("no poisoning injected")
	}
	if res.Artifacts.PrivateLeaks == 0 {
		t.Error("no private leaks injected")
	}
	// Sanitization must clean all of it.
	clean, st := paths.Sanitize(res.Dataset, paths.SanitizeOptions{})
	if st.PrependingRemoved == 0 || st.ReservedDiscarded == 0 {
		t.Errorf("sanitize stats = %+v", st)
	}
	for _, path := range clean.Paths {
		seen := map[uint32]bool{}
		for _, a := range path.ASNs {
			if a == 64512 {
				t.Fatal("private ASN survived sanitization")
			}
			if seen[a] {
				t.Fatal("loop survived sanitization")
			}
			seen[a] = true
		}
	}
}

func TestSelectVPs(t *testing.T) {
	p := topology.DefaultParams(3)
	p.ASes = 300
	topo := topology.Generate(p)
	vps := SelectVPs(topo, 15, 3)
	if len(vps) != 15 {
		t.Fatalf("got %d VPs", len(vps))
	}
	seen := map[uint32]bool{}
	classes := map[topology.Class]int{}
	for _, vp := range vps {
		if seen[vp] {
			t.Fatalf("duplicate VP %d", vp)
		}
		seen[vp] = true
		classes[topo.AS(vp).Class]++
	}
	if classes[topology.ClassTransit] == 0 {
		t.Error("expected transit VPs")
	}
	again := SelectVPs(topo, 15, 3)
	if !reflect.DeepEqual(vps, again) {
		t.Error("VP selection not deterministic")
	}
}

func TestPathCommunities(t *testing.T) {
	topo := toy(t)
	doc := map[uint32]bool{3: true, 4: true}
	// Path 5-3-4-7: 3 learned from peer 4 (3~4), 4 learned from customer 7.
	comms := PathCommunities(topo, []uint32{5, 3, 4, 7}, doc)
	if len(comms) != 2 {
		t.Fatalf("communities = %v", comms)
	}
	if comms[0].ASN() != 3 || comms[0].Value() != CommunityFromPeer {
		t.Errorf("comm[0] = %v", comms[0])
	}
	if comms[1].ASN() != 4 || comms[1].Value() != CommunityFromCustomer {
		t.Errorf("comm[1] = %v", comms[1])
	}
	// Non-documenting ASes attach nothing.
	if got := PathCommunities(topo, []uint32{5, 3, 4, 7}, nil); len(got) != 0 {
		t.Errorf("undocumented communities = %v", got)
	}
}

// TestFromMRTRefusesAnUpdateTrace: a BGP4MP update trace is not a RIB
// snapshot, so paths.FromMRT fails on it instead of loading no rows,
// while paths.FromMRTUpdates loads the same bytes.
func TestFromMRTRefusesAnUpdateTrace(t *testing.T) {
	p := topology.DefaultParams(19)
	p.ASes = 150
	opts := DefaultOptions(19)
	opts.NumVPs = 4
	res, err := Run(topology.Generate(p), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportUpdates(&buf, res, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if ds, _, err := paths.FromMRT(bytes.NewReader(buf.Bytes()), "rv"); err == nil {
		t.Errorf("FromMRT loaded %d rows from an update trace and no error", ds.NumPaths())
	}
	ds, _, err := paths.FromMRTUpdates(bytes.NewReader(buf.Bytes()), "rv")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumPaths() == 0 {
		t.Error("FromMRTUpdates loaded no rows from the update trace")
	}
}

func TestExportMRTRoundTrip(t *testing.T) {
	p := topology.DefaultParams(19)
	p.ASes = 150
	topo := topology.Generate(p)
	opts := DefaultOptions(19)
	opts.NumVPs = 6
	opts.PrependRate, opts.PoisonRate, opts.PrivateLeakRate = 0, 0, 0
	res, err := Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ts := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	if err := ExportMRT(&buf, res, ts); err != nil {
		t.Fatal(err)
	}
	ds, st, err := paths.FromMRT(&buf, opts.Collector)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != res.Dataset.NumPaths() {
		t.Errorf("MRT entries = %d, want %d", st.Entries, res.Dataset.NumPaths())
	}
	if ds.NumPaths() != res.Dataset.NumPaths() {
		t.Fatalf("paths after round trip = %d, want %d", ds.NumPaths(), res.Dataset.NumPaths())
	}
	// Same multiset of (prefix, path)?
	key := func(p paths.Path) string {
		s := p.Prefix.String()
		for _, a := range p.ASNs {
			s += "," + string(rune(a)) // cheap but collision-safe enough with prefix
		}
		return s
	}
	want := map[string]int{}
	for _, p := range res.Dataset.Paths {
		want[key(p)]++
	}
	for _, p := range ds.Paths {
		want[key(p)]--
	}
	for k, v := range want {
		if v != 0 {
			t.Fatalf("path multiset mismatch at %q: %d", k, v)
		}
	}
}
