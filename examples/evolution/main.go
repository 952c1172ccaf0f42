// Evolution: a longitudinal study in the style of the paper's
// 1998–2013 analysis — the Internet grows across snapshots, peering
// densifies, and the AS ranking by customer cone shifts.
//
//	go run ./examples/evolution
package main

import (
	"fmt"
	"log"

	asrank "github.com/asrank-go/asrank"
)

func main() {
	params := asrank.DefaultTopologyParams(2013)
	params.ASes = 500 // first snapshot; later snapshots grow ~8% each
	evolve := asrank.DefaultEvolveParams()
	evolve.Snapshots = 8
	series := asrank.GenerateSeries(params, evolve)

	type snapshot struct {
		year  int
		sizes map[uint32]int
		rank  []uint32
	}
	var snaps []snapshot

	for i, topo := range series {
		opts := asrank.DefaultSimOptions(2013 + int64(i))
		opts.NumVPs = 15
		sim, err := asrank.Simulate(topo, opts)
		if err != nil {
			log.Fatal(err)
		}
		clean := asrank.MustSanitize(sim.Dataset)
		res := asrank.Infer(clean, asrank.InferOptions{})
		rels := asrank.NewRelations(res.Rels)
		sizes := rels.ProviderPeerObservedBits(res.Dataset).Sizes()
		snaps = append(snaps, snapshot{
			year:  2006 + i,
			sizes: sizes,
			rank:  asrank.RankByCone(sizes, res.TransitDegree),
		})

		peers := 0
		for _, rel := range res.Rels {
			if rel == asrank.P2P {
				peers++
			}
		}
		fmt.Printf("%d: %5d ASes, %5d observed links, %4.1f%% p2p, clique size %d\n",
			2006+i, topo.NumASes(), len(res.Rels),
			100*float64(peers)/float64(len(res.Rels)), len(res.Clique))
	}

	// Rank trajectories of the final top five.
	last := snaps[len(snaps)-1]
	fmt.Println("\ncone-size trajectories of the final top 5:")
	for _, asn := range last.rank[:5] {
		fmt.Printf("  AS%-6d", asn)
		for _, s := range snaps {
			fmt.Printf(" %5d", s.sizes[asn])
		}
		fmt.Println()
	}
	fmt.Print("  year    ")
	for _, s := range snaps {
		fmt.Printf(" %5d", s.year)
	}
	fmt.Println()
}
