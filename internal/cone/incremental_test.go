package cone

import (
	"reflect"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// creditCorpus builds a realistic inferred corpus: topology → bgpsim →
// sanitize → infer, returning the post-discard dataset and its result.
func creditCorpus(t *testing.T, seed int64, ases int) (*paths.Dataset, *core.Result) {
	t.Helper()
	p := topology.DefaultParams(seed)
	p.ASes = ases
	topo := topology.Generate(p)
	sim, err := bgpsim.Run(topo, bgpsim.DefaultOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := core.Infer(clean, core.Options{})
	return res.Dataset, res
}

// TestPairCountsMatchesBatch proves the refcounted crediting walk is
// identical to the batch provider/peer-observed engine: crediting every
// post-discard path +1 and reading the counts back as a dense slab must
// equal the dense oracle's slab over the same corpus, and the rows built
// from the counts must equal ProviderPeerObservedBits' rows.
func TestPairCountsMatchesBatch(t *testing.T) {
	ds, res := creditCorpus(t, 77, 400)
	r := NewRelations(res.Rels)
	batch := r.ProviderPeerObservedBits(ds)
	oracle := denseObserved(r, len(ds.Paths), func(i int) []uint32 { return ds.Paths[i].ASNs }, true)

	pc := NewPairCounts()
	for _, p := range ds.Paths {
		pc.Credit(res.Rels, p.ASNs, 1)
	}
	if got := pc.dense(r.Index()); !reflect.DeepEqual(got.words, oracle.words) {
		t.Fatal("incremental slab differs from the dense provider/peer-observed oracle")
	}
	if got := pc.Rows(r.Index()); !reflect.DeepEqual(got, batch) {
		t.Fatal("incremental rows differ from batch ProviderPeerObservedBits")
	}
}

// TestPairCountsUnderflowPanics pins the refcount-discipline contract:
// removing a path that was never credited is a caller bug, not silent
// corruption.
func TestPairCountsUnderflowPanics(t *testing.T) {
	pc := NewPairCounts()
	rels := map[paths.Link]topology.Relationship{ // every hop descends
		paths.NewLink(1, 2): topology.P2C,
		paths.NewLink(2, 3): topology.P2C,
		paths.NewLink(3, 4): topology.P2C,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on refcount underflow")
		}
	}()
	pc.Credit(rels, []uint32{1, 2, 3, 4}, -1)
}
