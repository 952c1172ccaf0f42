// Quickstart: the end-to-end ASRank workflow in one file.
//
// Real deployments feed the pipeline MRT RIB snapshots from Route Views
// or RIPE RIS; here a synthetic Internet plus route-propagation
// simulation produces an equivalent corpus with known ground truth, so
// the inference can be scored at the end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	asrank "github.com/asrank-go/asrank"
)

func main() {
	// 1. A ground-truth Internet: tier-1 clique, transit hierarchy,
	//    multihomed stubs, content networks, IXP peering.
	params := asrank.DefaultTopologyParams(42)
	params.ASes = 1500
	topo := asrank.GenerateInternet(params)
	fmt.Printf("topology: %d ASes, %d links, clique %v\n",
		topo.NumASes(), topo.NumLinks(), topo.Tier1s())

	// 2. What a route collector would see from 20 vantage points.
	sim, err := asrank.Simulate(topo, asrank.DefaultSimOptions(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected: %d paths from %d VPs\n", sim.Dataset.NumPaths(), len(sim.VPs))

	// 3. Sanitize (paper step 1) and infer relationships (steps 2–9).
	clean, stats := asrank.Sanitize(sim.Dataset, asrank.SanitizeOptions{})
	fmt.Printf("sanitized: kept %d of %d paths (%d loops, %d reserved, %d duplicates removed)\n",
		stats.Kept, stats.Input, stats.LoopDiscarded, stats.ReservedDiscarded, stats.Duplicates)

	res := asrank.Infer(clean, asrank.InferOptions{})
	fmt.Printf("inferred: %d links, clique %v\n", len(res.Rels), res.Clique)

	// 4. Customer cones (provider/peer observed — the AS Rank metric)
	//    and the resulting ranking.
	rels := asrank.NewRelations(res.Rels)
	sizes := rels.ProviderPeerObservedBits(res.Dataset).Sizes()
	rank := asrank.RankByCone(sizes, res.TransitDegree)
	fmt.Println("\ntop 10 ASes by customer cone:")
	for i, asn := range rank[:10] {
		fmt.Printf("  %2d. AS%-6d cone %4d ASes (true cone %d)\n",
			i+1, asn, sizes[asn], len(topo.TrueCone(asn)))
	}

	// 5. Validate against ground truth the way the paper validates
	//    against operator-reported data.
	corpus := asrank.NewCorpus()
	corpus.AddAll(asrank.ReportedRelationships(topo, 0.1, 0.01, 42), asrank.SourceReported)
	m := asrank.EvaluateCorpus(res.Rels, corpus)
	fmt.Printf("\nvalidated against %d reported links: c2p PPV %.3f, p2p PPV %.3f\n",
		m.C2PTotal+m.P2PTotal, m.C2PPPV(), m.P2PPPV())

	full := asrank.Evaluate(res.Rels, topo.Links())
	fmt.Printf("against full ground truth:          c2p PPV %.3f, p2p PPV %.3f\n",
		full.C2PPPV(), full.P2PPPV())
}
