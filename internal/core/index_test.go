package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/asrank-go/asrank/internal/stats"
)

// TestIndexIsAFunctionOfThePathMultiset is the property the streaming
// engine's single commit path rests on: whatever order paths are added,
// removed, kept, poisoned and kept again in, the index ends equal —
// every table, the ranking, the clique — to a fresh index folding +1
// over the paths that are present and the subset of them that are kept.
func TestIndexIsAFunctionOfThePathMultiset(t *testing.T) {
	const absent, poisoned, kept = 0, 1, 2
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
		state := make([]int, len(pool))
		for op := 0; op < 400; op++ {
			i := rng.Intn(len(pool))
			switch next := rng.Intn(3); {
			case next == state[i]:
			case state[i] == absent:
				ix.AddPath(pool[i], 1)
				if next == kept {
					ix.AddKept(pool[i], 1)
				}
				state[i] = next
			case next == absent:
				if state[i] == kept {
					ix.AddKept(pool[i], -1)
				}
				ix.AddPath(pool[i], -1)
				state[i] = next
			case next == kept: // poisoned → kept: the clique moved, the path did not
				ix.AddKept(pool[i], 1)
				state[i] = next
			default: // kept → poisoned
				ix.AddKept(pool[i], -1)
				state[i] = next
			}
		}

		fresh := NewCorpusIndex()
		for i, p := range pool {
			if state[i] != absent {
				fresh.AddPath(p, 1)
			}
			if state[i] == kept {
				fresh.AddKept(p, 1)
			}
		}
		if !reflect.DeepEqual(ix, fresh) {
			t.Fatalf("seed %d: index after ±1 interleaving differs from a fresh fold:\n got %+v\nwant %+v", seed, ix, fresh)
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
