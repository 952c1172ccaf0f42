package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// stepsOf maps each labeled link of res to the step that labeled it.
func stepsOf(res *Result) map[paths.Link]Step {
	out := make(map[paths.Link]Step, len(res.Labels))
	for _, l := range res.Labels {
		out[l.Link] = l.Step
	}
	return out
}

// indexRows builds both index layers the way the per-row pipeline did —
// every row folded +1 — and returns them with the ranking and clique
// InferIndexed takes.
func indexRows(ds *paths.Dataset, opts Options) (ix *CorpusIndex, rank, clique []uint32) {
	ix = NewCorpusIndex()
	for _, p := range ds.Paths {
		ix.AddPath(p.ASNs, 1)
	}
	rank = ix.Rank()
	clique = CliqueFromIndex(ix, rank, opts)
	inClique := make(map[uint32]bool, len(clique))
	for _, c := range clique {
		inClique[c] = true
	}
	for _, p := range ds.Paths {
		if !Poisoned(p.ASNs, inClique) {
			ix.AddKept(p.ASNs, 1)
		}
	}
	return ix, rank, clique
}

// diffDenseOracle runs both inferencers over one index and returns a
// description of the first difference between their whole label maps,
// or "" when Rels, Labels, Providerless and CountsByStep all agree —
// with the spent dense inferencer (its Result and guard counts) and the
// oracle's refused-cycle tally.
func diffDenseOracle(ix *CorpusIndex, rank, clique []uint32, opts Options) (string, *inferencer, map[Step]int) {
	in := inferIndexed(context.Background(), ix, rank, clique, opts)
	dense := in.res
	oracle, refused := oracleInferIndexed(ix, rank, clique, opts)
	diff := ""
	switch {
	case !reflect.DeepEqual(dense.Rels, oracle.Rels), !slices.Equal(dense.Labels, oracle.Labels):
		diff = fmt.Sprintf("label maps differ: dense %d links, oracle %d", len(dense.Labels), len(oracle.Labels))
		ds, os := stepsOf(dense), stepsOf(oracle)
		for _, l := range ix.Links() {
			if dense.Rels[l] != oracle.Rels[l] || ds[l] != os[l] {
				diff = fmt.Sprintf("link %v: dense %v by %v, oracle %v by %v",
					l, dense.Rels[l], ds[l], oracle.Rels[l], os[l])
				break
			}
		}
	case !reflect.DeepEqual(dense.Providerless, oracle.Providerless):
		diff = fmt.Sprintf("Providerless: dense %v, oracle %v", dense.Providerless, oracle.Providerless)
	case !reflect.DeepEqual(dense.CountsByStep(), oracle.CountsByStep()):
		diff = fmt.Sprintf("CountsByStep: dense %v, oracle %v", dense.CountsByStep(), oracle.CountsByStep())
	}
	return diff, in, refused
}

// TestDenseEqualsOracle diffs the dense inferencer against the one it
// replaced (oracle_test.go), whole label maps, over seeded small
// Internets: 50–400 ASes, collections with and without partial-feed
// vantage points, and every ablation InferIndexed takes.
func TestDenseEqualsOracle(t *testing.T) {
	ablations := []struct {
		name string
		set  func(*Options, *topology.Topology)
	}{
		{"defaults", func(*Options, *topology.Topology) {}},
		{"no-fold", func(o *Options, _ *topology.Topology) { o.DisableFold = true }},
		{"no-providerless", func(o *Options, _ *topology.Topology) { o.DisableProviderless = true }},
		{"preset-clique", func(o *Options, topo *topology.Topology) { o.Clique = topo.Tier1s() }},
		{"low-fold-ratio", func(o *Options, _ *topology.Topology) { o.FoldRatio = 1.5; o.TopDownPasses = 1 }},
	}
	var labeled, bySteps [StepPeer + 1]int
	for seed := int64(1); seed <= 200; seed++ {
		rng := stats.NewRNG(seed)
		p := topology.DefaultParams(seed)
		p.ASes = rng.Range(50, 400)
		p.Tier1s = rng.Range(3, 8)
		p.ContentFrac = 0.06 // enough provider-less content networks to matter at this size
		topo := topology.Generate(p)
		so := bgpsim.DefaultOptions(seed)
		so.NumVPs = rng.Range(3, 10)
		if seed%2 == 0 {
			so.PartialFeedFrac = 0
		}
		sim, err := bgpsim.Run(topo, so)
		if err != nil {
			t.Fatal(err)
		}
		clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
		ab := ablations[seed%int64(len(ablations))]
		var opts Options
		ab.set(&opts, topo)
		ix, rank, clique := indexRows(clean, opts)
		diff, dense, _ := diffDenseOracle(ix, rank, clique, opts)
		if diff != "" {
			t.Fatalf("seed %d (%d ASes, %d VPs, partial %.2f, %s): %s",
				seed, p.ASes, so.NumVPs, so.PartialFeedFrac, ab.name, diff)
		}
		for _, c := range dense.res.CountsByStep() {
			labeled[c.Step] += c.C2P + c.P2P
			bySteps[c.Step]++
		}
	}
	for s := StepClique; s <= StepPeer; s++ {
		if labeled[s] == 0 {
			t.Errorf("no topology had a link labeled by step %v: that step was compared on nothing", s)
		}
	}
	t.Logf("links compared, by labeling step (clique..peer-default): %v over %v topologies", labeled[StepClique:], bySteps[StepClique:])
}

// TestInferIndexedPanicsOnUnrankedAS pins the precondition: a ranking
// that misses an AS of the kept layer is refused by name, where the
// inferencer this one replaced filed the AS's customers under rank
// position 0 and answered "no cycle" for it.
func TestInferIndexedPanicsOnUnrankedAS(t *testing.T) {
	ix := NewCorpusIndex()
	for _, hops := range [][]uint32{{10, 20, 30}, {10, 20, 777}} {
		ix.AddPath(hops, 1)
		ix.AddKept(hops, 1)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "AS 777") || !strings.Contains(msg, "not in rank") {
			t.Errorf("InferIndexed with AS 777 unranked: recovered %q, want a panic naming the AS", msg)
		}
	}()
	InferIndexed(context.Background(), ix, []uint32{20, 10, 30}, nil, Options{})
	t.Error("InferIndexed returned")
}

// TestStepLinkMetricsMatchCountsByStep checks the per-step
// asrank_infer_links_labeled_total attribution, which reads the dense
// label counter between stages, against the provenance the Result
// carries: one run's increments are exactly CountsByStep.
func TestStepLinkMetricsMatchCountsByStep(t *testing.T) {
	p := topology.DefaultParams(7)
	p.ASes = 500
	sim, err := bgpsim.Run(topology.Generate(p), bgpsim.DefaultOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	ix, rank, clique := indexRows(clean, Options{})

	label := map[Step]string{
		StepClique: "clique-p2p", StepTopDown: "top-down", StepVP: "vp",
		StepStubClique: "stub-clique", StepFold: "fold", StepPeer: "peer-default",
	}
	before := map[Step]uint64{}
	for s, name := range label {
		before[s] = inferStepLinks.With(name).Value()
	}
	res := InferIndexed(context.Background(), ix, rank, clique, Options{})
	counts := res.CountsByStep()
	if len(counts) < 5 {
		t.Fatalf("only %d steps labeled links on this corpus: %v", len(counts), counts)
	}
	want := map[Step]uint64{}
	for _, c := range counts {
		want[c.Step] = uint64(c.C2P + c.P2P)
	}
	for s, name := range label {
		if got := inferStepLinks.With(name).Value() - before[s]; got != want[s] {
			t.Errorf("asrank_infer_links_labeled_total{step=%q} grew by %d, CountsByStep says %d", name, got, want[s])
		}
	}
}

// fuzzIndex decodes bytes as a few dozen short paths over ASNs 1..32
// and folds them into an index. The first byte picks the ablation; then
// each byte is one hop (low five bits), and a byte with the top bit set
// also ends its path. Paths are folded as they come — prepending, loops
// and all — so self-links and repeated hops reach both inferencers.
func fuzzIndex(data []byte) (*CorpusIndex, []uint32, []uint32, Options) {
	var opts Options
	if len(data) > 0 {
		mode := data[0]
		data = data[1:]
		opts.DisableFold = mode&1 != 0
		opts.DisableProviderless = mode&2 != 0
		if mode&4 != 0 {
			opts.Clique = []uint32{1, 2, 3}
		}
		if mode&8 != 0 {
			opts.FoldRatio = 1.5
		}
	}
	if len(data) > 256 {
		data = data[:256]
	}
	ds := &paths.Dataset{}
	var hops []uint32
	for _, b := range data {
		hops = append(hops, 1+uint32(b&31))
		if b&0x80 != 0 {
			ds.Add(paths.Path{Collector: "f", ASNs: hops})
			hops = nil
		}
	}
	if len(hops) > 0 {
		ds.Add(paths.Path{Collector: "f", ASNs: hops})
	}
	ix, rank, clique := indexRows(ds, opts)
	return ix, rank, clique, opts
}

// fuzzSeed encodes a corpus in fuzzIndex's format, folding its ASNs
// onto 1..32 in first-seen order.
func fuzzSeed(mode byte, ds *paths.Dataset) []byte {
	out := []byte{mode}
	id := map[uint32]byte{}
	for _, p := range ds.Paths {
		for i, a := range p.ASNs {
			b, ok := id[a]
			if !ok {
				b = byte(len(id) % 32)
				id[a] = b
			}
			if i == len(p.ASNs)-1 {
				b |= 0x80
			}
			out = append(out, b)
		}
	}
	return out
}

// FuzzInferDenseVsOracle diffs the two inferencers on arbitrary tiny
// corpora, whole label maps. The seeds are the toy corpora of this
// package's tests and two of TestDenseEqualsOracle's generated ones.
func FuzzInferDenseVsOracle(f *testing.F) {
	f.Add([]byte{})
	for mode, ds := range []*paths.Dataset{cliqueCorpus(), duplicatedCorpus(stats.NewRNG(5))} {
		f.Add(fuzzSeed(byte(mode), ds))
		f.Add(fuzzSeed(byte(8|mode<<2), ds))
	}
	for seed := int64(1); seed <= 2; seed++ {
		p := topology.DefaultParams(seed)
		p.ASes, p.Tier1s = 32, 3
		so := bgpsim.DefaultOptions(seed)
		so.NumVPs = 3
		sim, err := bgpsim.Run(topology.Generate(p), so)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fuzzSeed(byte(seed), sim.Dataset))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, rank, clique, opts := fuzzIndex(data)
		if diff, _, _ := diffDenseOracle(ix, rank, clique, opts); diff != "" {
			t.Fatal(diff)
		}
	})
}
