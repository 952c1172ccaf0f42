package cone

import (
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// chainWalk is the observed-cone crediting rule, implemented once: the
// batch engine (Relations.addChains, credit-list sink) and the streaming
// engine (PairCounts.Credit, refcount sink) both consume its output, so
// the two cannot disagree on which positions of a path are credited
// with which members. It holds the per-path scratch; the zero value is
// ready to use. Not safe for concurrent use — one per shard or engine.
type chainWalk struct {
	hopRel    []topology.Relationship
	descendTo []int
}

// credited walks one path under rels (canonical orientation, see
// topology.RelOf) and returns one chain end per position: position i is
// credited with members asns[i+1..end[i]], and end[i] == i means it is
// credited with nothing. A chain is the maximal run of consecutive p2c
// hops out of i — an unlabelled hop ends it like any non-p2c hop. With
// needEntry (the provider/peer-observed rule) position i is credited
// only when hop i-1 → i comes from a provider or peer of asns[i].
//
// The returned slice aliases the scratch and is valid until the next
// call. The scratch grows by capacity-guarded make calls only, so the
// steady state is allocation-free.
//
//asrank:hotpath
func (w *chainWalk) credited(rels map[paths.Link]topology.Relationship, asns []uint32, needEntry bool) []int {
	n := len(asns)
	if n < 2 {
		return nil
	}
	if cap(w.descendTo) < n {
		w.hopRel = make([]topology.Relationship, n)
		w.descendTo = make([]int, n)
	}
	hopRel, descendTo := w.hopRel[:n-1], w.descendTo[:n]
	for i := range hopRel {
		hopRel[i] = topology.RelOf(rels, asns[i], asns[i+1])
	}
	// descendTo[i] is the furthest index reachable from i by consecutive
	// p2c hops; computed right to left.
	descendTo[n-1] = n - 1
	for i := n - 2; i >= 0; i-- {
		if hopRel[i] == topology.P2C {
			descendTo[i] = descendTo[i+1]
		} else {
			descendTo[i] = i
		}
	}
	if needEntry {
		descendTo[0] = 0 // the VP has no entering hop
		for i := 1; i < n-1; i++ {
			switch hopRel[i-1] {
			case topology.P2C, topology.P2P:
				// provider or peer of asns[i]: credited
			default:
				descendTo[i] = i
			}
		}
	}
	return descendTo
}
