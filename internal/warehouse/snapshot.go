package warehouse

import (
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/topology"
)

// LinkRec is one inferred adjacency in a snapshot, expressed over
// interned positions (A < B) with its relationship, relative to A (P2C:
// A is B's provider), and the pipeline step that labeled it.
type LinkRec struct {
	A, B int32
	Rel  topology.Relationship
	Step core.Step
}

// Snapshot is the columnar form of one inference epoch: everything the
// API read path serves, keyed by the interned AS index (positions
// [0..len(ASNs)) in ascending-ASN order). It is the unit the warehouse
// persists and the apiserver builds its immutable serving snapshot
// from — a snapshot that round-trips through the store reproduces the
// API's strong ETag bit for bit.
type Snapshot struct {
	// ASNs is the interned index: strictly ascending AS numbers.
	ASNs []uint32
	// TransitDegree and Degree are the ranking metrics, by position.
	TransitDegree []int32
	Degree        []int32
	// ConePrefixes is the prefix-weighted cone size, by position.
	ConePrefixes []int64
	// Clique is the inferred clique, ascending ASN.
	Clique []uint32
	// PathCount is the size of the corpus the inference consumed.
	PathCount int64
	// Links holds every labeled adjacency, sorted by (A, B).
	Links []LinkRec
	// ConeWords is the provider/peer-observed customer-cone slab: one
	// bitset of WordsPerCone() words per position (cone.BitSets layout).
	ConeWords []uint64
	// coneSizes is the popcount of each ConeWords row, by position, and
	// sizedSlab the slab it was counted from. Only the producers that
	// count the slab anyway fill them (Compose; the replayer, bit by
	// bit), so they are private: a hand-built snapshot, or a copy given
	// another slab, has no column and ConeSizes counts.
	coneSizes []int32
	sizedSlab *uint64
}

// WordsPerCone returns the per-AS bitset width of ConeWords.
func (s *Snapshot) WordsPerCone() int { return (len(s.ASNs) + 63) / 64 }

// NumASes returns the interned AS count.
func (s *Snapshot) NumASes() int { return len(s.ASNs) }

// ConeSizes returns each position's cone size in ASes: the column that
// rode along with the snapshot, or a fresh count of ConeWords when there
// is none. Shared; callers must not modify it.
func (s *Snapshot) ConeSizes() []int32 {
	if len(s.coneSizes) == len(s.ASNs) && len(s.ConeWords) > 0 && &s.ConeWords[0] == s.sizedSlab {
		return s.coneSizes
	}
	return cone.RowSizes(make([]int32, len(s.ASNs)), s.ConeWords)
}

// Rank lists positions in AS Rank order, best first:
// cone.RankPositions over ConeSizes and TransitDegree, computed on every
// call and stored nowhere, so no producer can hand a reader another
// order. The result is the caller's.
func (s *Snapshot) Rank() []int32 {
	return cone.RankPositions(s.ConeSizes(), s.TransitDegree)
}

// setConeSizes attaches the size column a producer counted from
// s.ConeWords as it stands.
func (s *Snapshot) setConeSizes(sizes []int32) {
	s.coneSizes, s.sizedSlab = sizes, nil
	if len(s.ConeWords) > 0 {
		s.sizedSlab = &s.ConeWords[0]
	}
}

// FromResult converts an inference result into its columnar snapshot:
// the cone product and per-AS aggregates apiserver.BuildSnapshot
// serves. Deterministic at any worker count (the cone engine
// guarantees it; everything else is sorted). The cone
// product and the prefix counts only read res, so they are two tasks of
// one pool call: the serial prefix count runs beside the cone crediting
// instead of after it. The cones are credited per distinct sequence
// (res.Sequences), and per row when a hand-built res has none; the
// prefix is per row, so the prefix count always reads the rows.
func FromResult(res *core.Result) *Snapshot {
	var (
		cones        *cone.BitSets
		prefixCounts map[uint32]int
	)
	pool.Chunks(0, 2, 1, func(lo, hi int) {
		for task := lo; task < hi; task++ {
			switch task {
			case 0:
				rels := cone.NewRelations(res.Rels)
				if res.Sequences != nil {
					cones = rels.ProviderPeerObservedSequences(res.Sequences)
				} else {
					cones = rels.ProviderPeerObservedBits(res.Dataset)
				}
			case 1:
				prefixCounts = cone.PrefixCounts(res.Dataset)
			}
		}
	})
	return Compose(res, cones, prefixCounts, res.Dataset.NumPaths())
}

// Compose assembles res's columnar snapshot around ingredients computed
// elsewhere: cones, the provider/peer-observed cone product over the
// sorted endpoints of the labeled links (the index cone.NewRelations
// builds); prefixCounts, each origin's distinct
// announced prefix count in the kept corpus (cone.PrefixCounts
// semantics); and pathCount, the kept-corpus size. The slab of cones
// passes to the snapshot uncopied; the caller must not write to it
// afterwards. Batch (FromResult) and streaming epochs flow through this
// one function, so a streaming epoch whose ingredients match a batch
// run's is bit-identical to it — column for column, and therefore ETag
// for ETag once built into an API snapshot.
func Compose(res *core.Result, cones *cone.BitSets, prefixCounts map[uint32]int, pathCount int) *Snapshot {
	idx, words := cones.Index(), cones.Slab()
	n := idx.Len()

	snap := &Snapshot{
		ASNs:      append([]uint32(nil), idx.ASNs()...),
		PathCount: int64(pathCount),
	}

	snap.TransitDegree = make([]int32, n)
	snap.Degree = make([]int32, n)
	for i := 0; i < n; i++ {
		asn := idx.ASN(int32(i))
		snap.TransitDegree[i] = int32(res.TransitDegree[asn])
		snap.Degree[i] = int32(res.Degree[asn])
	}

	// Cone-prefix totals, exactly as the API snapshot precomputes them.
	weights := make([]int64, n)
	for asn, c := range prefixCounts {
		if p, ok := idx.Pos(asn); ok {
			weights[p] = int64(c)
		}
	}
	snap.ConePrefixes = cones.WeightedSizes(weights)
	snap.ConeWords = words
	snap.setConeSizes(cone.RowSizes(make([]int32, n), words))

	snap.Clique = append([]uint32{}, res.Clique...)

	// Links by position pair. res.Labels is in (A, B) ASN order with
	// A < B, and interning preserves ASN order, so the positions come
	// out sorted with pa < pb.
	snap.Links = make([]LinkRec, len(res.Labels))
	for i, l := range res.Labels {
		pa, _ := idx.Pos(l.Link.A)
		pb, _ := idx.Pos(l.Link.B)
		snap.Links[i] = LinkRec{A: pa, B: pb, Rel: l.Rel, Step: l.Step}
	}
	return snap
}
