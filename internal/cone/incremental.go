package cone

import (
	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// PairCounts maintains, for every (owner, member) ASN pair, how many
// distinct corpus paths credit member into owner's provider/peer-
// observed customer cone — the reference-counted sink of the crediting
// walk the batch engine runs with needEntry=true. Credits commute, so a
// streaming engine can apply path adds and removes in any order and the
// pair state is a pure function of the current (path set, relationship
// set): the rows built from the counts equal ProviderPeerObservedBits
// over the equivalent batch corpus.
//
// PairCounts is not safe for concurrent use; the streaming engine
// serializes all mutations.
type PairCounts struct {
	counts map[uint64]int
	walk   chainWalk
}

// NewPairCounts returns an empty credit table.
func NewPairCounts() *PairCounts {
	return &PairCounts{counts: make(map[uint64]int)}
}

func pairKey(owner, member uint32) uint64 {
	return uint64(owner)<<32 | uint64(member)
}

// Credit walks one path under rels (canonical orientation, as
// core.Infer produces) and adjusts the pair refcounts by d (+1 when the
// path enters the corpus, -1 when it leaves). Self membership is not
// refcounted — Rows puts every position in its own cone
// unconditionally, as the batch merge does.
//
// A path must be uncredited with the same relationships it was credited
// under; the streaming engine guarantees this by re-crediting affected
// paths whenever a link's relationship changes.
//
//asrank:hotpath
func (pc *PairCounts) Credit(rels map[paths.Link]topology.Relationship, asns []uint32, d int) {
	for i, end := range pc.walk.credited(rels, asns, true) {
		for _, member := range asns[i+1 : end+1] {
			pc.add(asns[i], member, d)
		}
	}
}

// add adjusts one pair refcount.
func (pc *PairCounts) add(owner, member uint32, d int) {
	k := pairKey(owner, member)
	n := pc.counts[k] + d
	switch {
	case n < 0:
		panic("cone: pair credit refcount underflow")
	case n == 0:
		delete(pc.counts, k)
	default:
		pc.counts[k] = n
	}
}

// Rows builds the provider/peer-observed cones over idx as member
// lists, self always a member, through the list-building rule the
// batch engines merge with (listRows). It reads only the current
// refcounts, so the order in which credits were applied cannot matter.
// Every refcounted pair's owner and member must be interned in idx — a
// miss means the caller's index is stale relative to the credited
// relationships, a programming error.
func (pc *PairCounts) Rows(idx *asindex.Index) *Rows {
	credits := make([]credit, 0, len(pc.counts))
	for k := range pc.counts {
		oi, ok1 := idx.Pos(uint32(k >> 32))
		mi, ok2 := idx.Pos(uint32(k))
		if !ok1 || !ok2 {
			panic("cone: credited pair references an AS outside the index")
		}
		//lint:ignore nodeterminismleak listRows sorts every row, so map order cannot leak
		credits = append(credits, credit{owner: oi, member: mi})
	}
	return listRows(idx, credits)
}
