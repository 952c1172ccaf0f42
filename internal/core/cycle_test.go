package core

import (
	"testing"

	"github.com/asrank-go/asrank/internal/stats"
)

// guardFixture builds an inferencer over n positions with no links, for
// driving the cycle digraph directly: addEdge is the part of setC2P the
// guard sees.
func guardFixture(n int) *inferencer {
	res := &Result{}
	for a := 1; a <= n; a++ {
		res.Rank = append(res.Rank, uint32(a))
	}
	return newInferencer(NewCorpusIndex(), Options{}, res)
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
		customers := map[int32][]int32{}
		var reaches func(from, to int32, seen map[int32]bool) bool
		reaches = func(from, to int32, seen map[int32]bool) bool {
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
			p, c := int32(rng.Range(0, n-1)), int32(rng.Range(0, n-1))
			want := reaches(c, p, map[int32]bool{})
			if got := in.createsCycle(p, c); got != want {
				t.Fatalf("seed %d step %d: createsCycle(%d, %d) = %v, naive reachability says %v (customers %v)",
					seed, step, p, c, got, want, customers)
			}
			if want {
				refused++
				continue
			}
			admitted++
			in.addEdge(p, c)
			customers[p] = append(customers[p], c)
		}
	}
	if refused == 0 || admitted == 0 {
		t.Errorf("sequences refused %d and admitted %d edges: one answer was never exercised", refused, admitted)
	}
}

// TestCreatesCycleSeesAncestorsGainedElsewhere pins the one way the
// kept ancestor set can go stale: it is held for p, and an edge whose
// provider is *not* p gives one of p's ancestors a provider of its own.
// The next question about p must see the new ancestor; edges p itself
// adopts in between must not cost the set.
func TestCreatesCycleSeesAncestorsGainedElsewhere(t *testing.T) {
	const a, p, q, x, y = 0, 1, 2, 3, 4
	in := guardFixture(5)
	in.addEdge(a, p) // a is p's provider
	if in.createsCycle(p, q) {
		t.Fatal("q is no ancestor of p yet")
	}
	in.addEdge(p, x)
	in.addEdge(p, y)
	if !in.createsCycle(p, a) || in.createsCycle(p, q) {
		t.Fatal("guard misjudges p's ancestors after p adopted customers")
	}
	if got := in.guard.recomputes; got != 1 {
		t.Errorf("ancestor set of p walked %d times across p's own adoptions, want 1", got)
	}
	in.addEdge(q, a) // another provider adopts p's ancestor
	if !in.createsCycle(p, q) {
		t.Error("q adopted an ancestor of p, yet p→q is not seen to close a cycle")
	}
}

// TestCreatesCycleDoesNotAllocate pins the guard's reason for keeping
// its ancestor set in a stamped slice: a query touches no allocator,
// whether it reads the held set or walks a fresh one. The graph is a
// 200-node chain with a diamond at every node, plus one isolated AS;
// alternating the provider asked about makes every query a full walk.
func TestCreatesCycleDoesNotAllocate(t *testing.T) {
	const n = 200
	in := guardFixture(n + 1)
	for a := int32(0); a+2 < n; a++ {
		in.addEdge(a, a+1)
		in.addEdge(a, a+2)
	}
	// The first full traversal sizes the DFS stack.
	if in.createsCycle(n, 0) || !in.createsCycle(n-1, 0) {
		t.Fatal("guard misjudges the chain")
	}
	allocs := testing.AllocsPerRun(100, func() {
		in.createsCycle(n-1, 0)
		in.createsCycle(n, 0)
	})
	if allocs != 0 {
		t.Errorf("createsCycle allocates %v times per pair of queries, want 0", allocs)
	}
}
