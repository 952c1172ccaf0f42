package warehouse_test

import (
	"runtime"
	"testing"

	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// creditedPairs counts the (owner, member) credits the provider/peer-
// observed rule makes over seqs, repeats included: for every position
// entered from a provider or a peer, the members of the p2c chain below
// it. It is what the crediting engine records at most.
func creditedPairs(res *core.Result, seqs [][]uint32) int {
	pairs := 0
	for _, hops := range seqs {
		for i := 1; i+1 < len(hops); i++ {
			if in := res.Rel(hops[i-1], hops[i]); in != topology.P2C && in != topology.P2P {
				continue
			}
			for j := i; j+1 < len(hops) && res.Rel(hops[j], hops[j+1]) == topology.P2C; j++ {
				pairs++
			}
		}
	}
	return pairs
}

// TestFromResultAllocatesWhatTheConesHold bounds what FromResult
// allocates by what the product holds: a few dozen bytes per AS, per
// member and per credit (the per-AS term covers the link columns and
// the prefix counts too, both a few entries an AS). The corpus is sized
// so that the bound is below one n × n-bit slab, which the engines built
// until they listed members, so a buffer of n²/64 words coming back
// fails it.
func TestFromResultAllocatesWhatTheConesHold(t *testing.T) {
	const perUnit = 80 // bytes per AS, member or credit
	res := inferredCorpus(t, 2, 8000, 12)
	warehouse.FromResult(res) // warm the pool's workers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := warehouse.FromResult(res)
	runtime.ReadMemStats(&after)
	n, members, credits := len(snap.ASNs), len(snap.ConeMembers), creditedPairs(res, res.Dataset.Groups().Hops)
	bound := perUnit * uint64(n+members+credits)
	if slab := uint64(n) * uint64(n) / 8; bound >= slab {
		t.Fatalf("bound %d B is not below one %d-AS slab (%d B): the corpus is too small to tell", bound, n, slab)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d ASes, %d members, %d credits: %d B allocated, bound %d B", n, members, credits, got, bound)
	if got > bound {
		t.Errorf("FromResult allocated %d B, more than %d B per AS, member and credit (%d B)", got, perUnit, bound)
	}
}
