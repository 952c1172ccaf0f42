package cone

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// seqRelations is a frozen copy of the seed's sequential map-based cone
// engine, kept as the reference the parallel bitset engine must match
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
			// Credited once per distinct sequence, the cones are the rows'.
			if got := members(r.ProviderPeerObservedSequences(res.Sequences)); !reflect.DeepEqual(got, wantPP) {
				t.Fatalf("seed %d GOMAXPROCS %d: ProviderPeerObservedSequences differs from sequential seed", seed, procs)
			}
			bgp := r.observedBits(len(res.Sequences), func(i int) []uint32 { return res.Sequences[i] }, false)
			if got := members(bgp); !reflect.DeepEqual(got, wantBGP) {
				t.Fatalf("seed %d GOMAXPROCS %d: BGP-observed crediting per sequence differs from sequential seed", seed, procs)
			}
		}
		if len(res.Sequences) >= len(res.Dataset.Paths) {
			t.Fatalf("seed %d: %d sequences for %d rows, want rows that share a sequence", seed, len(res.Sequences), len(res.Dataset.Paths))
		}
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

// TestBitSetsAccessors covers the product's query API.
func TestBitSetsAccessors(t *testing.T) {
	bits := hierarchy().RecursiveBits()
	if got, want := bits.Sizes(), map[uint32]int{1: 4, 2: 2, 3: 2, 4: 1, 5: 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Sizes() = %v, want %v", got, want)
	}
	if !bits.Contains(1, 5) || bits.Contains(5, 1) {
		t.Error("Contains orientation wrong")
	}
	if bits.Contains(99, 1) || bits.Contains(1, 99) {
		t.Error("Contains should miss unknown ASNs")
	}
	if got := bits.Members(1); !reflect.DeepEqual(got, []uint32{1, 3, 4, 5}) {
		t.Errorf("Members(1) = %v", got)
	}
	if bits.Members(99) != nil {
		t.Error("Members(99) should be nil")
	}
	if bits.Len() != 5 || bits.Index().Len() != 5 {
		t.Errorf("Len = %d, Index().Len() = %d", bits.Len(), bits.Index().Len())
	}
	if again := FromSlab(bits.Index(), bits.Slab()); !reflect.DeepEqual(members(again), members(bits)) {
		t.Error("FromSlab over a product's own index and slab reads different cones")
	}
}
