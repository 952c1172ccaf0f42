package core

import (
	"testing"
	"testing/quick"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// TestInferInvariantsQuick property-tests the pipeline on arbitrary
// random corpora: whatever garbage goes in, every observed link comes
// out labeled exactly once with valid provenance, the p2c digraph is
// acyclic, and no clique member is anyone's customer.
func TestInferInvariantsQuick(t *testing.T) {
	f := func(raw [][]uint32) bool {
		ds := &paths.Dataset{}
		for _, asns := range raw {
			path := make([]uint32, 0, len(asns))
			for _, a := range asns {
				// Small AS space to force collisions, loops, repeats.
				path = append(path, 1+a%40)
			}
			if len(path) >= 2 {
				ds.Add(paths.Path{Collector: "q", ASNs: path})
			}
		}
		res := Infer(ds, Options{Sanitize: true})

		// Every link of the post-step-4 corpus labeled, none extra.
		links := res.Dataset.Links()
		if len(res.Rels) != len(links) {
			return false
		}
		// Labels: the same links in paths.SortedLinks order, each with
		// its relationship in Rels and a step.
		if len(res.Labels) != len(res.Rels) {
			return false
		}
		for i, l := range res.Labels {
			if i > 0 && paths.CompareLinks(res.Labels[i-1].Link, l.Link) >= 0 || res.Rels[l.Link] != l.Rel {
				return false
			}
		}
		steps := stepsOf(res)
		for l := range links {
			if _, ok := res.Rels[l]; !ok {
				return false
			}
			if steps[l] == StepNone {
				return false
			}
		}

		// Acyclic p2c digraph.
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
				return false
			}
		}

		// Clique members never appear as customers.
		clique := map[uint32]bool{}
		for _, m := range res.Clique {
			clique[m] = true
		}
		for l, r := range res.Rels {
			if r == topology.P2C && clique[l.B] && clique[l.A] {
				return false // intra-clique link must be p2p
			}
			if r == topology.P2C && clique[l.B] || r == topology.C2P && clique[l.A] {
				return false // a clique member bought transit
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestGenerateQuick property-tests the topology generator across random
// parameter draws: every generated Internet validates structurally.
func TestGenerateQuick(t *testing.T) {
	f := func(seed int64, sizeSel, tier1Sel, regionSel uint8) bool {
		p := topology.DefaultParams(seed)
		p.ASes = 60 + int(sizeSel)%400
		p.Tier1s = 3 + int(tier1Sel)%10
		p.Regions = 1 + int(regionSel)%6
		if p.ASes < p.Tier1s+2 {
			p.ASes = p.Tier1s + 10
		}
		topo := topology.Generate(p)
		return topo.Validate() == nil && topo.NumASes() == p.ASes
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
