package core

import (
	"testing"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// guardFixture builds an inferencer over ASes 1..n with nothing labeled.
func guardFixture(n int) *inferencer {
	res := &Result{
		Rels:  make(map[paths.Link]topology.Relationship),
		Steps: make(map[paths.Link]Step),
	}
	for a := 1; a <= n; a++ {
		res.Rank = append(res.Rank, uint32(a))
	}
	return newInferencer(NewCorpusIndex(), Options{}, res, nil)
}

// TestCreatesCycleMatchesNaiveReachability checks the acyclicity guard
// against the obvious implementation — a customer map and a recursive
// walk — at every step of random edge-insertion sequences, the way
// steps 5–8 drive it: ask, and insert only when the answer is no.
func TestCreatesCycleMatchesNaiveReachability(t *testing.T) {
	var refused, admitted int
	for seed := int64(0); seed < 300; seed++ {
		rng := stats.NewRNG(seed)
		n := rng.Range(2, 30)
		in := guardFixture(n)
		customers := map[uint32][]uint32{}
		var reaches func(from, to uint32, seen map[uint32]bool) bool
		reaches = func(from, to uint32, seen map[uint32]bool) bool {
			if from == to {
				return true
			}
			seen[from] = true
			for _, c := range customers[from] {
				if !seen[c] && reaches(c, to, seen) {
					return true
				}
			}
			return false
		}
		for step := 0; step < 4*n; step++ {
			p, c := uint32(rng.Range(1, n)), uint32(rng.Range(1, n))
			want := reaches(c, p, map[uint32]bool{})
			if got := in.createsCycle(p, c); got != want {
				t.Fatalf("seed %d step %d: createsCycle(%d, %d) = %v, naive reachability says %v (customers %v)",
					seed, step, p, c, got, want, customers)
			}
			if want {
				refused++
				continue
			}
			admitted++
			if !in.labeled(p, c) {
				in.setC2P(p, c, StepTopDown)
				customers[p] = append(customers[p], c)
			}
		}
	}
	if refused == 0 || admitted == 0 {
		t.Errorf("sequences refused %d and admitted %d edges: one answer was never exercised", refused, admitted)
	}
}

// TestCreatesCycleDoesNotAllocate pins the guard's reason for being a
// stamped DFS rather than a memo: a query touches no allocator, whether
// it stops at the first hit or visits everything. The graph is a
// 200-node chain with a diamond at every node, plus one isolated AS.
func TestCreatesCycleDoesNotAllocate(t *testing.T) {
	const n = 200
	in := guardFixture(n + 1)
	for a := uint32(1); a+2 <= n; a++ {
		in.setC2P(a, a+1, StepTopDown)
		in.setC2P(a, a+2, StepTopDown)
	}
	// The first full traversal sizes the DFS stack.
	if in.createsCycle(n+1, 1) || !in.createsCycle(n, 1) {
		t.Fatal("guard misjudges the chain")
	}
	allocs := testing.AllocsPerRun(100, func() {
		in.createsCycle(n, 1)
		in.createsCycle(n+1, 1)
	})
	if allocs != 0 {
		t.Errorf("createsCycle allocates %v times per pair of queries, want 0", allocs)
	}
}
