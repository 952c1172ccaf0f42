package cone

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// seqRelations is a frozen copy of the seed's sequential map-based cone
// engine, kept as the reference the parallel list engines must match
// exactly.
type seqRelations struct {
	customers map[uint32][]uint32
	rel       map[paths.Link]topology.Relationship
	ases      []uint32
}

func newSeqRelations(rels map[paths.Link]topology.Relationship) *seqRelations {
	r := &seqRelations{
		customers: make(map[uint32][]uint32),
		rel:       make(map[paths.Link]topology.Relationship, len(rels)),
	}
	seen := make(map[uint32]bool)
	for l, rel := range rels {
		r.rel[l] = rel
		switch rel {
		case topology.P2C:
			r.customers[l.A] = append(r.customers[l.A], l.B)
		case topology.C2P:
			r.customers[l.B] = append(r.customers[l.B], l.A)
		}
		if !seen[l.A] {
			seen[l.A] = true
			r.ases = append(r.ases, l.A)
		}
		if !seen[l.B] {
			seen[l.B] = true
			r.ases = append(r.ases, l.B)
		}
	}
	return r
}

func (r *seqRelations) relOf(x, y uint32) topology.Relationship {
	rel, ok := r.rel[paths.NewLink(x, y)]
	if !ok {
		return topology.None
	}
	if paths.NewLink(x, y).A == x {
		return rel
	}
	return rel.Invert()
}

func (r *seqRelations) recursive() memberSets {
	out := make(memberSets, len(r.ases))
	for _, asn := range r.ases {
		cone := map[uint32]bool{}
		stack := []uint32{asn}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cone[x] {
				continue
			}
			cone[x] = true
			stack = append(stack, r.customers[x]...)
		}
		out[asn] = cone
	}
	return out
}

func (r *seqRelations) observed(ds *paths.Dataset, needEntry bool) memberSets {
	out := make(memberSets, len(r.ases))
	for _, asn := range r.ases {
		out[asn] = map[uint32]bool{asn: true}
	}
	for _, p := range ds.Paths {
		asns := p.ASNs
		n := len(asns)
		if n < 2 {
			continue
		}
		descendTo := make([]int, n)
		descendTo[n-1] = n - 1
		for i := n - 2; i >= 0; i-- {
			if r.relOf(asns[i], asns[i+1]) == topology.P2C {
				descendTo[i] = descendTo[i+1]
			} else {
				descendTo[i] = i
			}
		}
		for i := 0; i < n-1; i++ {
			if descendTo[i] == i {
				continue
			}
			if needEntry {
				if i == 0 {
					continue
				}
				switch r.relOf(asns[i-1], asns[i]) {
				case topology.P2C, topology.P2P:
				default:
					continue
				}
			}
			cone := out[asns[i]]
			if cone == nil {
				cone = map[uint32]bool{asns[i]: true}
				out[asns[i]] = cone
			}
			for j := i + 1; j <= descendTo[i]; j++ {
				cone[asns[j]] = true
			}
		}
	}
	return out
}

// inferredCorpus generates a synthetic Internet, simulates a corpus,
// and infers relationships over it.
func inferredCorpus(t *testing.T, seed int64, ases int) *core.Result {
	t.Helper()
	p := topology.DefaultParams(seed)
	p.ASes = ases
	topo := topology.Generate(p)
	sim, err := bgpsim.Run(topo, bgpsim.DefaultOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	return core.Infer(clean, core.Options{})
}

// TestParallelMatchesSequentialSeed is the property test for the
// parallel engine: on randomized generated Internets, every cone
// definition must produce cones identical to the seed's sequential
// map-based implementation at every worker-pool size.
func TestParallelMatchesSequentialSeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{1, 7, 42} {
		res := inferredCorpus(t, seed, 400)
		ref := newSeqRelations(res.Rels)
		wantRec := ref.recursive()
		wantBGP := ref.observed(res.Dataset, false)
		wantPP := ref.observed(res.Dataset, true)

		for _, procs := range []int{1, 3, 8} {
			runtime.GOMAXPROCS(procs)
			r := NewRelations(res.Rels)
			if got := members(r.RecursiveBits()); !reflect.DeepEqual(got, wantRec) {
				t.Fatalf("seed %d GOMAXPROCS %d: RecursiveBits differs from sequential seed", seed, procs)
			}
			if got := members(r.BGPObservedBits(res.Dataset)); !reflect.DeepEqual(got, wantBGP) {
				t.Fatalf("seed %d GOMAXPROCS %d: BGPObservedBits differs from sequential seed", seed, procs)
			}
			if got := members(r.ProviderPeerObservedBits(res.Dataset)); !reflect.DeepEqual(got, wantPP) {
				t.Fatalf("seed %d GOMAXPROCS %d: ProviderPeerObservedBits differs from sequential seed", seed, procs)
			}
			// Credited row by row, the cones are the distinct paths'.
			rows := &paths.Dataset{Paths: res.Dataset.Paths}
			if got := members(r.ProviderPeerObservedBits(rows)); !reflect.DeepEqual(got, wantPP) {
				t.Fatalf("seed %d GOMAXPROCS %d: ProviderPeerObservedBits over the rows differs from sequential seed", seed, procs)
			}
			if got := members(r.BGPObservedBits(rows)); !reflect.DeepEqual(got, wantBGP) {
				t.Fatalf("seed %d GOMAXPROCS %d: BGPObservedBits over the rows differs from sequential seed", seed, procs)
			}
		}
		if g := res.Dataset.Groups(); g == nil || len(g.Hops) >= len(res.Dataset.Paths) {
			t.Fatalf("seed %d: the kept corpus's %d rows carry no grouping, or no row shares a path", seed, len(res.Dataset.Paths))
		}
	}
}

// TestEditedCorpusIsCreditedByRow: a grouping describes its rows only
// until they change. One row appended or replaced (by a path the corpus
// does not hold: a row's hops reversed), or the rows reordered, leave
// Sanitize's output and core.Infer's kept corpus without a trusted
// grouping, and both observed engines credit the edited rows one by
// one: the cones the sequential reference gives over the same rows.
// Unedited, the grouping holds and gives those cones too.
func TestEditedCorpusIsCreditedByRow(t *testing.T) {
	reversed := func(hops []uint32) []uint32 { out := slices.Clone(hops); slices.Reverse(out); return out }
	edits := map[string]func(*paths.Dataset){
		"as produced":    func(*paths.Dataset) {},
		"row appended":   func(d *paths.Dataset) { d.Add(paths.Path{ASNs: reversed(d.Paths[len(d.Paths)/2].ASNs)}) },
		"row replaced":   func(d *paths.Dataset) { d.Paths[0].ASNs = reversed(d.Paths[len(d.Paths)-1].ASNs) },
		"rows reordered": func(d *paths.Dataset) { slices.Reverse(d.Paths) },
	}
	for _, seed := range []int64{2, 5} {
		p := topology.DefaultParams(seed)
		p.ASes = 200
		sim, err := bgpsim.Run(topology.Generate(p), bgpsim.DefaultOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
		res := core.Infer(sim.Dataset, core.Options{Sanitize: true})
		r, ref := NewRelations(res.Rels), newSeqRelations(res.Rels)
		for corpus, ds := range map[string]*paths.Dataset{"sanitized": clean, "kept": res.Dataset} {
			for name, edit := range edits {
				changed := *ds // the grouping is copied along
				changed.Paths = slices.Clone(ds.Paths)
				edit(&changed)
				if trusted := changed.Groups() != nil; trusted != (name == "as produced") {
					t.Fatalf("seed %d %s %s: grouping trusted = %v", seed, corpus, name, trusted)
				}
				if got, want := members(r.BGPObservedBits(&changed)), ref.observed(&changed, false); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s %s: BGP-observed cones differ from the rows'", seed, corpus, name)
				}
				if got, want := members(r.ProviderPeerObservedBits(&changed)), ref.observed(&changed, true); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s %s: PP cones differ from the rows'", seed, corpus, name)
				}
			}
		}
	}
}

// TestWithContextLeavesRelationsShared: Relations is immutable after
// construction, so WithContext returns a copy and one goroutine may
// trace its builds while another builds on the original — `make check`
// runs this under the race detector.
func TestWithContextLeavesRelationsShared(t *testing.T) {
	r := NewRelations(inferredCorpus(t, 3, 150).Rels)
	want := members(r.RecursiveBits())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 20 {
			if traced := r.WithContext(context.Background()); traced == r {
				t.Error("WithContext returned the shared Relations itself")
			}
		}
	}()
	for range 5 {
		if got := members(r.RecursiveBits()); !reflect.DeepEqual(got, want) {
			t.Error("a build beside WithContext differs from one alone")
		}
	}
	wg.Wait()
	if r.ctx != nil {
		t.Error("WithContext set the context of the Relations it was called on")
	}
}

// TestParallelPPDCByteIdentical pins the strongest determinism claim:
// the serialized ppdc-ases output is byte-identical across worker-pool
// sizes.
func TestParallelPPDCByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	res := inferredCorpus(t, 9, 300)
	var out [2]bytes.Buffer
	for i, procs := range []int{1, 7} {
		runtime.GOMAXPROCS(procs)
		if err := WritePPDC(&out[i], NewRelations(res.Rels).ProviderPeerObservedBits(res.Dataset)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("ppdc output at GOMAXPROCS 7 differs from GOMAXPROCS 1")
	}
}
