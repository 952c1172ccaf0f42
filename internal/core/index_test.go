package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/asrank-go/asrank/internal/stats"
)

// TestIndexIsAFunctionOfThePathMultiset is the property both pipelines
// rest on: whatever order and in whatever multiples paths are added,
// removed, kept, poisoned and kept again, the index ends equal — every
// table, the ranking, the clique — to a fresh index folding +1 per
// unit over the paths that are present and the subset of them that are
// kept. The streaming engine's single commit path uses it at d = ±1;
// the batch fold, one call per distinct hop sequence with the row
// count as d, uses it at d > 1.
func TestIndexIsAFunctionOfThePathMultiset(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := stats.NewRNG(seed)
		// Distinct loop-free paths over a small AS space, so tables
		// collide and refcounts climb past one.
		pool := make([][]uint32, 0, 40)
		seen := map[string]bool{}
		for len(pool) < cap(pool) {
			perm := rng.Perm(12)[:rng.Range(2, 6)]
			path := make([]uint32, len(perm))
			for i, p := range perm {
				path[i] = uint32(p + 1)
			}
			if key := fmt.Sprint(path); !seen[key] {
				seen[key] = true
				pool = append(pool, path)
			}
		}

		ix := NewCorpusIndex()
		units := make([]int, len(pool)) // copies of the path present
		kept := make([]bool, len(pool)) // whether they are in the kept layer
		for op := 0; op < 400; op++ {
			i := rng.Intn(len(pool))
			switch rng.Intn(3) {
			case 0: // add 1..4 units; an absent path draws its flag
				d := rng.Range(1, 4)
				if units[i] == 0 {
					kept[i] = rng.Bool(0.5)
				}
				ix.AddPath(pool[i], d)
				if kept[i] {
					ix.AddKept(pool[i], d)
				}
				units[i] += d
			case 1: // remove some of the units, or all
				if units[i] == 0 {
					continue
				}
				d := rng.Range(1, units[i])
				if kept[i] {
					ix.AddKept(pool[i], -d)
				}
				ix.AddPath(pool[i], -d)
				units[i] -= d
			case 2: // the clique moved, the path did not: flip every unit
				if kept[i] = !kept[i]; kept[i] {
					ix.AddKept(pool[i], units[i])
				} else {
					ix.AddKept(pool[i], -units[i])
				}
			}
		}

		fresh := NewCorpusIndex()
		for i, p := range pool {
			for u := 0; u < units[i]; u++ {
				fresh.AddPath(p, 1)
				if kept[i] {
					fresh.AddKept(p, 1)
				}
			}
		}
		if !reflect.DeepEqual(ix, fresh) {
			t.Fatalf("seed %d: index after ±d interleaving differs from a fresh +1 fold:\n got %+v\nwant %+v", seed, ix, fresh)
		}
		rank, want := ix.Rank(), fresh.Rank()
		if !reflect.DeepEqual(rank, want) {
			t.Fatalf("seed %d: Rank() = %v, fresh fold gives %v", seed, rank, want)
		}
		if got, want := CliqueFromIndex(ix, rank, Options{}), CliqueFromIndex(fresh, want, Options{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: clique = %v, fresh fold gives %v", seed, got, want)
		}
	}
}
