package core

import (
	"testing"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// foldFixture builds an inferencer with nothing labeled yet, links and
// transit degrees given directly.
func foldFixture(links map[paths.Link]int, transit map[uint32]int, opts Options) *inferencer {
	res := &Result{}
	seen := map[uint32]bool{}
	for l := range links {
		for _, a := range []uint32{l.A, l.B} {
			if !seen[a] {
				seen[a] = true
				res.Rank = append(res.Rank, a)
			}
		}
	}
	ix := NewCorpusIndex()
	for l, c := range links {
		ix.AddKept([]uint32{l.A, l.B}, c)
	}
	ix.transitDeg = transit
	return newInferencer(ix, opts, res)
}

// TestFoldLiveUnlabeledCounts pins the satellite bugfix: the
// peeringRich guard must run on live unlabeled-link counts. AS 100 has
// seven unlabeled links — four to stubs it obviously provides for, and
// three up to much larger networks. The stub links fold away first
// (sorted link order), dropping 100's unlabeled degree to three, so the
// provider links must fold too. The seed computed the degree snapshot
// once before the pass, saw seven, judged 100 "peering rich", and left
// all three provider links to the p2p default.
func TestFoldLiveUnlabeledCounts(t *testing.T) {
	links := map[paths.Link]int{}
	for _, stub := range []uint32{200, 300, 400, 500} {
		links[paths.NewLink(100, stub)] = 1
	}
	for _, prov := range []uint32{900, 901, 902} {
		links[paths.NewLink(100, prov)] = 1
	}
	transit := map[uint32]int{100: 3, 900: 12, 901: 12, 902: 12}
	in := foldFixture(links, transit, Options{FoldRatio: 3})

	in.fold()
	in.materialize()

	// Stub links fold with 100 as provider: td 3 >= 3*(0+1).
	for _, stub := range []uint32{200, 300, 400, 500} {
		if got := in.res.Rel(100, stub); got != topology.P2C {
			t.Errorf("Rel(100, %d) = %v, want P2C", stub, got)
		}
		if got := stepsOf(in.res)[paths.NewLink(100, stub)]; got != StepFold {
			t.Errorf("step for 100-%d = %v, want fold", stub, got)
		}
	}
	// Provider links fold with 100 as customer: td 12 >= 3*(3+1), and
	// by the time they are visited 100's live unlabeled degree is 3,
	// below the peeringRich threshold of 6.
	for _, prov := range []uint32{900, 901, 902} {
		if got := in.res.Rel(prov, 100); got != topology.P2C {
			t.Errorf("Rel(%d, 100) = %v, want P2C (stale unlabeled count suppressed the fold)", prov, got)
		}
	}
}

// TestFoldPeeringRichStillGuarded checks the guard still suppresses
// folds for genuinely peering-rich networks: when none of the
// candidate's links fold away first, the live count equals the
// snapshot and the guard holds.
func TestFoldPeeringRichStillGuarded(t *testing.T) {
	links := map[paths.Link]int{}
	for _, prov := range []uint32{900, 901, 902, 903, 904, 905} {
		links[paths.NewLink(100, prov)] = 1
	}
	transit := map[uint32]int{100: 3, 900: 12, 901: 12, 902: 12, 903: 12, 904: 12, 905: 12}
	in := foldFixture(links, transit, Options{FoldRatio: 3})

	in.fold()
	in.materialize()

	for _, prov := range []uint32{900, 901, 902, 903, 904, 905} {
		if got := in.res.Rel(prov, 100); got != topology.None {
			t.Errorf("Rel(%d, 100) = %v, want unlabeled (peering-rich guard)", prov, got)
		}
	}
}
