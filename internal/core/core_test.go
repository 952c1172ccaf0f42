package core

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
)

func ds(pathList ...[]uint32) *paths.Dataset {
	d := &paths.Dataset{}
	for i, p := range pathList {
		d.Add(paths.Path{
			Collector: "t",
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			ASNs:      p,
		})
	}
	return d
}

func TestRankASes(t *testing.T) {
	// 20 transits for 4 distinct neighbor pairs; 30 transits for 2.
	d := ds(
		[]uint32{10, 20, 30},
		[]uint32{11, 20, 30},
		[]uint32{10, 20, 31},
		[]uint32{12, 30, 40},
	)
	ix := NewCorpusIndex()
	for _, p := range d.Paths {
		ix.AddPath(p.ASNs, 1)
	}
	td := ix.TransitDegrees()
	rank := ix.Rank()
	if rank[0] != 20 {
		t.Errorf("rank[0] = %d, want 20 (transit degree %d)", rank[0], td[20])
	}
	if rank[1] != 30 {
		t.Errorf("rank[1] = %d, want 30", rank[1])
	}
	// Ties broken by node degree then ASN: stubs 10 (deg 1) vs 11/12/31/40.
	seen := map[uint32]bool{}
	for _, a := range rank {
		if seen[a] {
			t.Fatalf("duplicate %d in rank", a)
		}
		seen[a] = true
	}
	if len(rank) != 7 {
		t.Errorf("rank has %d ASes", len(rank))
	}
}

func TestPoisonedDetection(t *testing.T) {
	clique := map[uint32]bool{1: true, 2: true}
	if !poisoned([]uint32{5, 1, 9, 2, 7}, clique) {
		t.Error("clique-nonclique-clique not detected")
	}
	if poisoned([]uint32{5, 1, 2, 7}, clique) {
		t.Error("adjacent clique members flagged")
	}
	if poisoned([]uint32{5, 1, 9, 8}, clique) {
		t.Error("single clique crossing flagged")
	}
	if !poisoned([]uint32{1, 9, 9, 2}, clique) {
		t.Error("multi-hop sandwich not detected")
	}
}

// TestDiscardPoisoned checks step 4 through Infer: every row of a
// poisoned hop sequence is counted and dropped, whatever prefix carried
// it, and the surviving rows keep their input order.
func TestDiscardPoisoned(t *testing.T) {
	sandwich, clean, other := []uint32{5, 1, 9, 2, 7}, []uint32{5, 1, 2, 7}, []uint32{6, 2, 1, 8}
	d := ds(sandwich, clean, sandwich, other, clean)
	res := Infer(d, Options{Clique: []uint32{1, 2}})
	if res.PoisonedPaths != 2 {
		t.Errorf("PoisonedPaths = %d, want 2", res.PoisonedPaths)
	}
	want := []paths.Path{d.Paths[1], d.Paths[3], d.Paths[4]}
	if !reflect.DeepEqual(res.Dataset.Paths, want) {
		t.Errorf("kept rows = %+v, want %+v", res.Dataset.Paths, want)
	}
}

// TestUnsanitizedASZeroRowsWeighNothing: AS 0 is reserved (RFC 7607)
// and is the index's first-hop sentinel, so a row holding it, in a
// corpus Infer was told not to sanitize, must not reach the index — as
// a hop, or as the vantage point of the AS behind it (7 0 10 1 would
// fold the context (0, 10, 1)). Infer over a corpus with such rows is
// Infer over the corpus without them, and the index refuses a path
// holding AS 0 the way it refuses an underflow.
func TestUnsanitizedASZeroRowsWeighNothing(t *testing.T) {
	clean := cliqueCorpus()
	zeros := [][]uint32{{7, 0, 10, 1}, {0, 11, 2, 112}, {101, 11, 3, 0}}
	with := &paths.Dataset{}
	for i, p := range clean.Paths {
		with.Add(p)
		if i%3 == 0 {
			with.Add(paths.Path{Collector: "t", ASNs: zeros[i/3]})
		}
	}
	if got, want := Infer(with, Options{}), Infer(clean, Options{}); !reflect.DeepEqual(got, want) {
		t.Errorf("Infer over rows holding AS 0 differs from Infer without them:\n got %+v\nwant %+v", got, want)
	}
	for name, fold := range map[string]func(*CorpusIndex, []uint32){
		"AddPath": func(ix *CorpusIndex, hops []uint32) { ix.AddPath(hops, 1) },
		"AddKept": func(ix *CorpusIndex, hops []uint32) { ix.AddKept(hops, 1) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "AS 0") {
					t.Errorf("%s of a path holding AS 0: recovered %s, want a panic naming AS 0", name, msg)
				}
			}()
			fold(NewCorpusIndex(), zeros[0])
		}()
	}
}

// cliqueCorpus builds paths over a 3-member clique {1,2,3} with transit
// customers 10,11,12 and stubs underneath, from two VPs.
func cliqueCorpus() *paths.Dataset {
	return ds(
		// VP 100 is a customer of 10.
		[]uint32{100, 10, 1, 2, 11, 110},
		[]uint32{100, 10, 1, 3, 12, 120},
		[]uint32{100, 10, 2, 3, 12, 121},
		[]uint32{100, 10, 1, 111},
		// VP 101 is a customer of 11.
		[]uint32{101, 11, 2, 1, 10, 100},
		[]uint32{101, 11, 2, 3, 12, 120},
		[]uint32{101, 11, 3, 1, 10, 102},
		[]uint32{101, 11, 2, 112},
	)
}

func TestInferClique(t *testing.T) {
	d := cliqueCorpus()
	res := Infer(d, Options{})
	want := []uint32{1, 2, 3}
	if !reflect.DeepEqual(res.Clique, want) {
		t.Errorf("clique = %v, want %v", res.Clique, want)
	}
	// Intra-clique links are p2p with clique provenance.
	steps := stepsOf(res)
	for _, pair := range [][2]uint32{{1, 2}, {1, 3}, {2, 3}} {
		l := paths.NewLink(pair[0], pair[1])
		if res.Rels[l] != topology.P2P || steps[l] != StepClique {
			t.Errorf("link %v: rel=%v step=%v", l, res.Rels[l], steps[l])
		}
	}
}

// TestCliqueTieBreaksOnMembers pins the rule betterClique implements:
// of two maximal cliques of one size around the top AS, the one whose
// sorted members compare smaller wins, whatever the transit degrees.
// Here {1, 4, 5} outranks {1, 2, 3} on transit degree, and loses.
func TestCliqueTieBreaksOnMembers(t *testing.T) {
	ix := NewCorpusIndex()
	for _, p := range [][]uint32{{2, 1, 3}, {2, 3}, {4, 1, 5}, {4, 5}, {9, 4, 8}, {9, 5, 8}} {
		ix.AddPath(p, 1)
	}
	rank := ix.Rank()
	if at := func(asn uint32) int { return slices.Index(rank, asn) }; rank[0] != 1 || max(at(4), at(5)) > min(at(2), at(3)) {
		t.Fatalf("rank %v: want 1 first and 4, 5 above 2, 3", rank)
	}
	if got := CliqueFromIndex(ix, rank, Options{}); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Errorf("clique = %v, want [1 2 3]", got)
	}

	for _, c := range []struct {
		a, b []uint32
		want bool
	}{
		{[]uint32{3, 1, 2}, []uint32{1, 4, 5}, true},
		{[]uint32{5, 4, 1}, []uint32{1, 2, 3}, false},
		{[]uint32{1, 9}, []uint32{1, 2, 3}, false},
		{[]uint32{9, 8, 7, 6}, []uint32{1, 2, 3}, true},
		{[]uint32{3, 2, 1}, []uint32{1, 2, 3}, false},
		{[]uint32{7}, nil, true},
	} {
		if got := betterClique(c.a, c.b); got != c.want {
			t.Errorf("betterClique(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPresetClique(t *testing.T) {
	d := cliqueCorpus()
	res := Infer(d, Options{Clique: []uint32{2, 1}})
	if !reflect.DeepEqual(res.Clique, []uint32{1, 2}) {
		t.Errorf("preset clique = %v", res.Clique)
	}
}

func TestTopDownInference(t *testing.T) {
	d := cliqueCorpus()
	res := Infer(d, Options{})
	// Clique members' downstream neighbors are customers.
	cases := []struct {
		provider, customer uint32
	}{
		{1, 10}, {2, 11}, {3, 12}, {1, 111}, {2, 112},
		{10, 100}, // forced by the valley-free triplet (1, 10, 100)
	}
	for _, c := range cases {
		if got := res.Rel(c.provider, c.customer); got != topology.P2C {
			t.Errorf("Rel(%d,%d) = %v, want p2c", c.provider, c.customer, got)
		}
	}
}

func TestAcyclicInvariant(t *testing.T) {
	d := cliqueCorpus()
	res := Infer(d, Options{})
	// Build provider->customer edges and check for cycles.
	customers := map[uint32][]uint32{}
	for l, r := range res.Rels {
		switch r {
		case topology.P2C:
			customers[l.A] = append(customers[l.A], l.B)
		case topology.C2P:
			customers[l.B] = append(customers[l.B], l.A)
		}
	}
	state := map[uint32]int{}
	var visit func(uint32) bool
	visit = func(x uint32) bool {
		state[x] = 1
		for _, c := range customers[x] {
			if state[c] == 1 {
				return false
			}
			if state[c] == 0 && !visit(c) {
				return false
			}
		}
		state[x] = 2
		return true
	}
	for a := range customers {
		if state[a] == 0 && !visit(a) {
			t.Fatal("inferred p2c digraph has a cycle")
		}
	}
}

func TestEveryLinkLabeled(t *testing.T) {
	d := cliqueCorpus()
	res := Infer(d, Options{})
	steps := stepsOf(res)
	for l := range res.Dataset.Links() {
		if _, ok := res.Rels[l]; !ok {
			t.Errorf("link %v unlabeled", l)
		}
		if steps[l] == StepNone {
			t.Errorf("link %v has no provenance", l)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	d := cliqueCorpus()
	res := Infer(d, Options{})
	provs := res.Providers(10)
	if !containsASN(provs, 1) {
		t.Errorf("Providers(10) = %v, want to include 1", provs)
	}
	custs := res.Customers(1)
	if !containsASN(custs, 10) {
		t.Errorf("Customers(1) = %v, want to include 10", custs)
	}
	peers := res.Peers(1)
	if !containsASN(peers, 2) || !containsASN(peers, 3) {
		t.Errorf("Peers(1) = %v", peers)
	}
	if res.Rel(100, 999) != topology.None {
		t.Error("unknown link should be None")
	}
}

func TestStepString(t *testing.T) {
	for s, want := range map[Step]string{
		StepNone: "none", StepClique: "clique", StepTopDown: "top-down",
		StepVP: "vp", StepStubClique: "stub-clique", StepFold: "fold", StepPeer: "peer-default",
	} {
		if s.String() != want {
			t.Errorf("Step(%d) = %q want %q", s, s.String(), want)
		}
		if got, ok := ParseStep(want); !ok || got != s {
			t.Errorf("ParseStep(%q) = %d, %v; want %d", want, got, ok, s)
		}
	}
	for _, name := range []string{"step?", "", "Clique"} {
		if _, ok := ParseStep(name); ok {
			t.Errorf("ParseStep(%q) names a step", name)
		}
	}
}

// TestInferPhasesCoverInferIndexed: a traced run opens InferIndexed's
// dense build and its write-back into the Result as phases of their
// own, so after step 4 every part of core.infer is a child span: the
// build, the labelling stages in order, then the write-back.
func TestInferPhasesCoverInferIndexed(t *testing.T) {
	tr := trace.New()
	ctx, root := tr.StartSpan(context.Background(), "test.root")
	InferCtx(ctx, cliqueCorpus(), Options{})
	root.End()
	var infer uint64
	for _, s := range tr.Flight() {
		if s.Name == "core.infer" {
			infer = s.ID
		}
	}
	var got []string
	for _, s := range tr.Flight() {
		if s.Parent == infer && infer != 0 {
			got = append(got, s.Name)
		}
	}
	i := slices.Index(got, "core.infer.poison")
	want := []string{"core.infer.build", "core.infer.clique_p2p", "core.infer.providerless", "core.infer.top_down",
		"core.infer.vp", "core.infer.stub_clique", "core.infer.fold", "core.infer.peer_default", "core.infer.materialize"}
	if i < 0 || !slices.Equal(got[i+1:], want) {
		t.Errorf("core.infer's children: %v, want core.infer.poison then %v", got, want)
	}
}

func TestCountsByStep(t *testing.T) {
	d := cliqueCorpus()
	res := Infer(d, Options{})
	counts := res.CountsByStep()
	total := 0
	for _, c := range counts {
		total += c.C2P + c.P2P
	}
	if total != len(res.Rels) {
		t.Errorf("step counts cover %d links, want %d", total, len(res.Rels))
	}
}

// accuracy computes c2p/p2p PPV of an inference against ground truth.
func accuracy(t *testing.T, topo *topology.Topology, res *Result) (c2pPPV, p2pPPV, coverage float64) {
	t.Helper()
	truth := topo.Links()
	var c2pOK, c2pN, p2pOK, p2pN, known int
	for l, rel := range res.Rels {
		trueRel, ok := truth[l]
		if !ok {
			continue // artifact link not in ground truth
		}
		known++
		if rel == topology.P2P {
			p2pN++
			if trueRel == topology.P2P {
				p2pOK++
			}
		} else {
			c2pN++
			if trueRel == rel {
				c2pOK++
			}
		}
	}
	if c2pN > 0 {
		c2pPPV = float64(c2pOK) / float64(c2pN)
	}
	if p2pN > 0 {
		p2pPPV = float64(p2pOK) / float64(p2pN)
	}
	coverage = float64(known) / float64(len(truth))
	return
}

func TestEndToEndAccuracy(t *testing.T) {
	p := topology.DefaultParams(101)
	p.ASes = 800
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(101)
	opts.NumVPs = 25
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := Infer(clean, Options{})

	// The inferred clique must contain no false members; some true
	// members may be missed when their mutual peering links are not
	// visible from the VPs, as in real collector data.
	tier1 := map[uint32]bool{}
	for _, a := range topo.Tier1s() {
		tier1[a] = true
	}
	for _, m := range res.Clique {
		if !tier1[m] {
			t.Errorf("false clique member %d (%v)", m, topo.AS(m).Class)
		}
	}
	if len(res.Clique)*3 < len(topo.Tier1s())*2 {
		t.Errorf("clique recall too low: found %d of %d", len(res.Clique), len(topo.Tier1s()))
	}
	c2p, p2p, _ := accuracy(t, topo, res)
	if c2p < 0.95 {
		t.Errorf("c2p PPV = %.4f, want >= 0.95", c2p)
	}
	if p2p < 0.90 {
		t.Errorf("p2p PPV = %.4f, want >= 0.90", p2p)
	}
	if res.PoisonedPaths == 0 {
		t.Error("expected some poisoned paths to be discarded")
	}
}

func TestProviderlessDetection(t *testing.T) {
	p := topology.DefaultParams(103)
	p.ASes = 600
	p.ContentFrac = 0.05
	p.ProviderlessContentFrac = 1.0 // all content networks provider-less
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(103)
	opts.NumVPs = 20
	opts.PrependRate, opts.PoisonRate, opts.PrivateLeakRate = 0, 0, 0
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := Infer(clean, Options{})

	// Every true content AS observed adjacent to the clique should be
	// flagged and its clique links inferred p2p, not c2p.
	flagged := map[uint32]bool{}
	for _, a := range res.Providerless {
		flagged[a] = true
	}
	mislabeled := 0
	total := 0
	for _, asn := range topo.ASNs() {
		if topo.AS(asn).Class != topology.ClassContent {
			continue
		}
		for _, t1 := range topo.Tier1s() {
			if rel, ok := res.Rels[paths.NewLink(asn, t1)]; ok {
				total++
				if rel != topology.P2P {
					mislabeled++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no content-clique links observed")
	}
	if frac := float64(mislabeled) / float64(total); frac > 0.1 {
		t.Errorf("%.1f%% of provider-less content links mislabeled as c2p (%d/%d)",
			frac*100, mislabeled, total)
	}
	if len(flagged) == 0 {
		t.Error("no provider-less ASes detected")
	}
}

func TestInferWithSanitizeOption(t *testing.T) {
	d := ds([]uint32{100, 10, 10, 1, 111}) // prepended
	res := Infer(d, Options{Sanitize: true})
	if res.SanitizeStats.PrependingRemoved != 1 {
		t.Errorf("sanitize stats = %+v", res.SanitizeStats)
	}
}

func TestInferDeterministic(t *testing.T) {
	p := topology.DefaultParams(55)
	p.ASes = 300
	topo := topology.Generate(p)
	sim, err := bgpsim.Run(topo, bgpsim.DefaultOptions(55))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	a := Infer(clean, Options{})
	b := Infer(clean, Options{})
	if !reflect.DeepEqual(a.Rels, b.Rels) || !reflect.DeepEqual(a.Clique, b.Clique) {
		t.Error("inference not deterministic")
	}
	if !reflect.DeepEqual(a.Rank, b.Rank) {
		t.Error("ranking not deterministic")
	}
}
