package experiments

import (
	"fmt"
	"sort"

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/stats"
)

// R14ConeConcentration quantifies how concentrated transit is at the
// top of the hierarchy: the fraction of all observed ASes inside the
// union of the top-k provider/peer cones, and the Gini coefficient of
// cone sizes — the paper's "a handful of networks reach most of the
// Internet through their customers" observation.
func R14ConeConcentration(l *Lab) *Report {
	res := l.Infer()
	rels := cone.NewRelations(res.Rels)
	cones := rels.ProviderPeerObservedBits(res.Dataset)
	sizes := cones.Sizes()
	order := cone.Rank(sizes, res.TransitDegree)
	totalASes := len(rels.ASes())

	t := stats.NewTable("Coverage of the top-k PP cones",
		"top k", "union cone size", "fraction of ASes")
	union := map[uint32]bool{}
	ks := []int{1, 3, 5, 10, 20}
	next := 0
	for _, k := range ks {
		if k > len(order) {
			k = len(order)
		}
		for ; next < k; next++ {
			for _, m := range cones.Members(order[next]) {
				union[m] = true
			}
		}
		t.AddRow(k, len(union), float64(len(union))/float64(totalASes))
	}

	var coneSizes []float64
	for _, asn := range rels.ASes() {
		coneSizes = append(coneSizes, float64(sizes[asn]))
	}
	sort.Float64s(coneSizes)
	gini := stats.Gini(coneSizes)
	return &Report{
		ID:    "R14",
		Title: "customer-cone concentration (extension)",
		Sections: []fmt.Stringer{t,
			Textf("Gini coefficient of PP cone sizes: %.3f (1 = all transit in one AS)\n", gini)},
	}
}
