package validation

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/mrt"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/rpsl"
	"github.com/asrank-go/asrank/internal/topology"
)

func link(a, b uint32) paths.Link { return paths.NewLink(a, b) }

func TestCorpusAddAndConflicts(t *testing.T) {
	c := NewCorpus()
	c.Add(link(1, 2), topology.P2C, SourceReported)
	c.Add(link(1, 2), topology.P2C, SourceRPSL) // agreement: sources merge
	c.Add(link(3, 4), topology.P2P, SourceCommunities)
	c.Add(link(3, 4), topology.P2C, SourceRPSL)     // conflict: dropped
	c.Add(link(3, 4), topology.P2P, SourceReported) // after conflict: ignored

	if c.Len() != 1 || c.Conflicts() != 1 {
		t.Fatalf("len=%d conflicts=%d", c.Len(), c.Conflicts())
	}
	e := c.Entries()[link(1, 2)]
	if e.Rel != topology.P2C || e.Sources != SourceReported|SourceRPSL {
		t.Errorf("entry = %+v", e)
	}
}

func TestCorpusStats(t *testing.T) {
	c := NewCorpus()
	c.Add(link(1, 2), topology.P2C, SourceReported)
	c.Add(link(1, 2), topology.P2C, SourceRPSL)
	c.Add(link(5, 6), topology.P2P, SourceCommunities)
	st := c.Stats()
	if st.Total != 2 || st.MultiSrc != 1 || st.C2P != 1 || st.P2P != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BySource[SourceReported] != 1 || st.BySource[SourceRPSL] != 1 || st.BySource[SourceCommunities] != 1 {
		t.Errorf("by source = %v", st.BySource)
	}
}

func TestSourceString(t *testing.T) {
	if (SourceReported | SourceRPSL).String() != "reported+rpsl" {
		t.Errorf("got %q", (SourceReported | SourceRPSL).String())
	}
	if Source(0).String() != "none" {
		t.Error("zero source should be none")
	}
}

func TestReportedSampling(t *testing.T) {
	p := topology.DefaultParams(44)
	p.ASes = 300
	topo := topology.Generate(p)
	clean := Reported(topo, 0.3, 0, 44)
	if len(clean) == 0 {
		t.Fatal("no reported data")
	}
	truth := topo.Links()
	for l, r := range clean {
		if truth[l] != r {
			t.Fatalf("noise-free reported data mismatches truth at %v", l)
		}
	}
	noisy := Reported(topo, 0.5, 0.2, 44)
	wrong := 0
	for l, r := range noisy {
		if truth[l] != r {
			wrong++
		}
	}
	if wrong == 0 {
		t.Error("expected some noisy entries")
	}
	// Determinism.
	again := Reported(topo, 0.5, 0.2, 44)
	if len(again) != len(noisy) {
		t.Error("sampling not deterministic")
	}
}

func TestFromPathCommunities(t *testing.T) {
	path := []uint32{10, 20, 30, 40}
	comms := []bgp.Community{
		bgp.NewCommunity(20, bgpsim.CommunityFromPeer),     // 20~30
		bgp.NewCommunity(30, bgpsim.CommunityFromCustomer), // 30>40
		bgp.NewCommunity(99, bgpsim.CommunityFromPeer),     // AS not on path: ignored
		bgp.NewCommunity(40, bgpsim.CommunityFromPeer),     // origin: no next hop
		bgp.NewCommunity(10, 999),                          // unknown code: ignored
	}
	rels := FromPathCommunities(path, comms)
	if len(rels) != 2 {
		t.Fatalf("rels = %v", rels)
	}
	if rels[link(20, 30)] != topology.P2P {
		t.Errorf("20-30 = %v", rels[link(20, 30)])
	}
	r := rels[link(30, 40)]
	want := topology.P2C
	if link(30, 40).A != 30 {
		want = want.Invert()
	}
	if r != want {
		t.Errorf("30-40 = %v want %v", r, want)
	}
	if FromPathCommunities(path, nil) != nil {
		t.Error("no communities should yield nil")
	}
}

func TestFromCommunitiesMRTEndToEnd(t *testing.T) {
	p := topology.DefaultParams(45)
	p.ASes = 300
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(45)
	opts.NumVPs = 10
	opts.CommunityDocFrac = 0.5
	opts.PrependRate, opts.PoisonRate, opts.PrivateLeakRate = 0, 0, 0
	res, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bgpsim.ExportMRT(&buf, res, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	rels, err := FromCommunitiesMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("no community relationships extracted")
	}
	// Communities are attached from ground truth, so extraction must
	// match the topology exactly.
	truth := topo.Links()
	for l, r := range rels {
		if truth[l] != r {
			t.Fatalf("link %v: community says %v, truth %v", l, r, truth[l])
		}
	}
}

// TestFromCommunitiesMRTReadsWireHops: an entry's hops are the ones
// paths.WireHops reads. The AS_SET entry's community would label 20>30
// through the flattened set, but the entry is discarded; the entry whose
// path lacks its peer AS gets the peer in front, so the peer's own
// community labels its first link.
func TestFromCommunitiesMRTReadsWireHops(t *testing.T) {
	peers := []mrt.Peer{
		{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("203.0.113.1"), ASN: 10},
		{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("203.0.113.2"), ASN: 11},
	}
	attrs := func(path bgp.ASPath, comms ...bgp.Community) *bgp.PathAttributes {
		return &bgp.PathAttributes{ASPath: path, NextHop: netip.MustParseAddr("192.0.2.1"), Communities: comms}
	}
	aggregate := bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint32{10, 20}}, {Type: bgp.ASSet, ASNs: []uint32{30, 40}}}
	var buf bytes.Buffer
	rw := mrt.NewRIBWriter(&buf, netip.MustParseAddr("198.51.100.1"), "v", peers, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC))
	for i, entry := range []mrt.RIBEntry{
		{PeerIndex: 0, Attrs: attrs(aggregate, bgp.NewCommunity(20, bgpsim.CommunityFromCustomer))},
		{PeerIndex: 0, Attrs: attrs(bgp.Sequence(10, 20, 50), bgp.NewCommunity(20, bgpsim.CommunityFromCustomer))},
		{PeerIndex: 1, Attrs: attrs(bgp.Sequence(60, 70), bgp.NewCommunity(11, bgpsim.CommunityFromPeer))},
	} {
		if err := rw.WritePrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), []mrt.RIBEntry{entry}); err != nil {
			t.Fatal(err)
		}
	}
	rels, err := FromCommunitiesMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2c := topology.P2C
	if link(20, 50).A != 20 {
		p2c = p2c.Invert()
	}
	want := map[paths.Link]topology.Relationship{link(20, 50): p2c, link(11, 60): topology.P2P}
	if !reflect.DeepEqual(rels, want) {
		t.Errorf("rels = %v, want %v", rels, want)
	}

	if _, err := FromCommunitiesMRT(bytes.NewReader(nil)); err == nil {
		t.Error("an empty stream gave no error")
	}
}

func TestEvaluate(t *testing.T) {
	inferred := map[paths.Link]topology.Relationship{
		link(1, 2): topology.P2C,
		link(3, 4): topology.P2P,
		link(5, 6): topology.P2C,
		link(7, 8): topology.C2P,
	}
	truth := map[paths.Link]topology.Relationship{
		link(1, 2): topology.P2C, // correct c2p
		link(3, 4): topology.P2C, // wrong p2p
		link(5, 6): topology.P2P, // wrong c2p
		// 7-8 unvalidated
	}
	m := Evaluate(inferred, truth)
	if m.C2PTotal != 2 || m.C2PCorrect != 1 {
		t.Errorf("c2p: %d/%d", m.C2PCorrect, m.C2PTotal)
	}
	if m.P2PTotal != 1 || m.P2PCorrect != 0 {
		t.Errorf("p2p: %d/%d", m.P2PCorrect, m.P2PTotal)
	}
	if m.Coverage != 0.75 {
		t.Errorf("coverage = %v", m.Coverage)
	}
	if m.C2PPPV() != 0.5 || m.P2PPPV() != 0 {
		t.Errorf("ppvs: %v %v", m.C2PPPV(), m.P2PPPV())
	}
	if m.Overall() != 1.0/3 {
		t.Errorf("overall = %v", m.Overall())
	}
	var zero Metrics
	if zero.C2PPPV() != 0 || zero.P2PPPV() != 0 || zero.Overall() != 0 {
		t.Error("zero metrics should yield 0 PPVs")
	}
}

// TestFullValidationPipeline mirrors the paper's validation workflow:
// infer from paths, assemble a three-source corpus, and check PPV.
func TestFullValidationPipeline(t *testing.T) {
	p := topology.DefaultParams(46)
	p.ASes = 600
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(46)
	opts.NumVPs = 20
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Corpus: reported (8%, 1% noise), RPSL (30% registered), communities.
	corpus := NewCorpus()
	corpus.AddAll(Reported(topo, 0.08, 0.01, 46), SourceReported)
	autnums, err := rpsl.AutNums(rpsl.Generate(topo, rpsl.GenerateOptions{Seed: 46, RegisterFrac: 0.3, StaleFrac: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddAll(rpsl.Relationships(autnums), SourceRPSL)
	var buf bytes.Buffer
	if err := bgpsim.ExportMRT(&buf, sim, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	comm, err := FromCommunitiesMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddAll(comm, SourceCommunities)

	if corpus.Len() == 0 {
		t.Fatal("empty corpus")
	}

	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := core.Infer(clean, core.Options{})
	m := EvaluateCorpus(res.Rels, corpus)
	if m.C2PTotal == 0 || m.P2PTotal == 0 {
		t.Fatalf("metrics empty: %+v", m)
	}
	if ppv := m.C2PPPV(); ppv < 0.9 {
		t.Errorf("validated c2p PPV = %.3f", ppv)
	}
	t.Logf("corpus %d links (%d conflicts); c2p %.4f p2p %.4f coverage %.3f",
		corpus.Len(), corpus.Conflicts(), m.C2PPPV(), m.P2PPPV(), m.Coverage)

	// Per-step metrics cover every inferred link.
	steps := StepMetrics(res, truthOf(corpus))
	total := 0
	for _, sm := range steps {
		total += sm.C2PTotal + sm.P2PTotal
	}
	if total != m.C2PTotal+m.P2PTotal {
		t.Errorf("per-step totals %d != overall %d", total, m.C2PTotal+m.P2PTotal)
	}
	if len(OrderedSteps(steps)) != len(steps) {
		t.Error("OrderedSteps lost a step")
	}
}

func truthOf(c *Corpus) map[paths.Link]topology.Relationship {
	out := make(map[paths.Link]topology.Relationship, c.Len())
	for l, e := range c.Entries() {
		out[l] = e.Rel
	}
	return out
}
