package asrank_test

import (
	"fmt"
	"strings"

	asrank "github.com/asrank-go/asrank"
)

// ExampleInfer runs the pipeline over a hand-written corpus: a
// three-member clique (1, 2, 3) with transit customers (10, 11, 12)
// and stubs below them, seen from two vantage points.
func ExampleInfer() {
	const corpus = `
rv1|10.0.0.0/24|100 10 1 2 11 110
rv1|10.0.1.0/24|100 10 1 3 12 120
rv1|10.0.2.0/24|100 10 2 3 12 121
rv1|10.0.3.0/24|100 10 1 111
rv2|10.0.4.0/24|101 11 2 1 10 100
rv2|10.0.1.0/24|101 11 2 3 12 120
rv2|10.0.5.0/24|101 11 3 1 10 102
rv2|10.0.6.0/24|101 11 2 112
`
	ds, err := asrank.ReadPaths(strings.NewReader(corpus))
	if err != nil {
		panic(err)
	}
	res := asrank.Infer(asrank.MustSanitize(ds), asrank.InferOptions{})
	fmt.Println("clique:", res.Clique)
	fmt.Println("rel(1,10):", res.Rel(1, 10))
	fmt.Println("rel(10,1):", res.Rel(10, 1))
	fmt.Println("rel(1,2):", res.Rel(1, 2))
	// Output:
	// clique: [1 2 3]
	// rel(1,10): p2c
	// rel(10,1): c2p
	// rel(1,2): p2p
}

// ExampleRelations_ProviderPeerObservedBits computes the provider/peer
// observed customer cone — the AS Rank metric — for the same corpus.
func ExampleRelations_ProviderPeerObservedBits() {
	const corpus = `
rv1|10.0.0.0/24|100 10 1 2 11 110
rv1|10.0.1.0/24|100 10 1 3 12 120
rv2|10.0.4.0/24|101 11 2 1 10 100
`
	ds, _ := asrank.ReadPaths(strings.NewReader(corpus))
	clean := asrank.MustSanitize(ds)
	res := asrank.Infer(clean, asrank.InferOptions{})
	rels := asrank.NewRelations(res.Rels)
	cones := rels.ProviderPeerObservedBits(res.Dataset)
	fmt.Println("PP cone of AS1 has", len(cones.Members(1)), "members")
	// Output:
	// PP cone of AS1 has 3 members
}
