package warehouse

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/topology"
)

// RelCode is the on-disk relationship encoding of one link record,
// relative to the record's (A, B) position pair.
type RelCode uint8

// Relationship codes. Zero is reserved so a zero-valued record is
// detectably invalid.
const (
	RelAProvB RelCode = 1 // A is B's provider (p2c in A→B orientation)
	RelBProvA RelCode = 2 // B is A's provider
	RelPeer   RelCode = 3 // A and B peer
)

// String names the code in A→B orientation ("none" for the zero
// value, which history diffs use for "link absent").
func (rc RelCode) String() string {
	switch rc {
	case RelAProvB:
		return "p2c"
	case RelBProvA:
		return "c2p"
	case RelPeer:
		return "p2p"
	}
	return "none"
}

// MarshalJSON renders the code as its name — time-travel responses say
// "p2c", not 1.
func (rc RelCode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + rc.String() + `"`), nil
}

// UnmarshalJSON parses the name form back, so API clients can decode
// time-travel responses into the same types the server serializes.
func (rc *RelCode) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"p2c"`:
		*rc = RelAProvB
	case `"c2p"`:
		*rc = RelBProvA
	case `"p2p"`:
		*rc = RelPeer
	case `"none"`:
		*rc = 0
	default:
		return fmt.Errorf("warehouse: unknown relationship code %s", b)
	}
	return nil
}

// LinkRec is one inferred adjacency in a snapshot, expressed over
// interned positions (A < B) with its relationship and the index of
// its provenance string in Snapshot.StepNames.
type LinkRec struct {
	A, B int32
	Rel  RelCode
	Step uint8
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
	// PathCount is the size of the corpus the inference consumed;
	// NumRels the total number of labeled links (== len(Links) unless a
	// future engine emits unlabeled entries).
	PathCount int64
	NumRels   int64
	// StepNames is the provenance string table LinkRec.Step indexes.
	StepNames []string
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
// the same cone product and per-AS aggregates the API snapshot builder
// consumed before the warehouse existed, so apiserver.Build(res) and
// apiserver.BuildSnapshot(FromResult(res)) serve byte-identical
// responses. Deterministic at any worker count (the cone engine
// guarantees it; everything else is sorted). The cone
// product and the prefix counts only read res, so they are two tasks of
// one pool call: the serial prefix count runs beside the cone crediting
// instead of after it.
func FromResult(res *core.Result) *Snapshot {
	var (
		cones        *cone.BitSets
		prefixCounts map[uint32]int
	)
	pool.Chunks(0, 2, 1, func(lo, hi int) {
		for task := lo; task < hi; task++ {
			switch task {
			case 0:
				cones = cone.NewRelations(res.Rels).ProviderPeerObservedBits(res.Dataset)
			case 1:
				prefixCounts = cone.PrefixCounts(res.Dataset)
			}
		}
	})
	return Compose(ComposeInput{
		Cones:         cones,
		TransitDegree: res.TransitDegree,
		Degree:        res.Degree,
		PrefixCounts:  prefixCounts,
		Rels:          res.Rels,
		Steps:         res.Steps,
		Clique:        res.Clique,
		PathCount:     res.Dataset.NumPaths(),
	})
}

// ComposeInput carries the already-computed ingredients of one epoch:
// the cone product over the interned index, the ranking aggregates, and
// the labeled relationship set. FromResult derives them from a batch
// inference result; the streaming engine maintains them incrementally
// and hands them over directly.
type ComposeInput struct {
	// Cones is the provider/peer-observed cone product over the interned
	// AS set (the sorted endpoints of Rels — the index cone.NewRelations
	// builds). Ownership of its slab passes to the snapshot, uncopied; the
	// caller must not write to it afterwards.
	Cones *cone.BitSets
	// TransitDegree and Degree are the step-2 ranking aggregates over
	// the sanitized (pre-discard) corpus; missing ASes read as zero.
	TransitDegree map[uint32]int
	Degree        map[uint32]int
	// PrefixCounts is each origin's distinct announced prefix count in
	// the kept corpus (cone.PrefixCounts semantics).
	PrefixCounts map[uint32]int
	// Rels and Steps are the labeled links with provenance.
	Rels  map[paths.Link]topology.Relationship
	Steps map[paths.Link]core.Step
	// Clique is the inferred clique, ascending ASN.
	Clique []uint32
	// PathCount is the kept-corpus size.
	PathCount int
}

// Compose assembles a columnar snapshot from precomputed ingredients.
// Batch (FromResult) and streaming epochs flow through this one
// function, so a streaming epoch whose ingredients match a batch run's
// is bit-identical to it — column for column, and therefore ETag for
// ETag once built into an API snapshot.
func Compose(in ComposeInput) *Snapshot {
	idx, words := in.Cones.Index(), in.Cones.Slab()
	n := idx.Len()

	snap := &Snapshot{
		ASNs:      append([]uint32(nil), idx.ASNs()...),
		PathCount: int64(in.PathCount),
		NumRels:   int64(len(in.Rels)),
	}

	snap.TransitDegree = make([]int32, n)
	snap.Degree = make([]int32, n)
	for i := 0; i < n; i++ {
		asn := idx.ASN(int32(i))
		snap.TransitDegree[i] = int32(in.TransitDegree[asn])
		snap.Degree[i] = int32(in.Degree[asn])
	}

	// Cone-prefix totals, exactly as the API snapshot precomputes them.
	weights := make([]int64, n)
	for asn, c := range in.PrefixCounts {
		if p, ok := idx.Pos(asn); ok {
			weights[p] = int64(c)
		}
	}
	snap.ConePrefixes = in.Cones.WeightedSizes(weights)
	snap.ConeWords = words
	snap.setConeSizes(cone.RowSizes(make([]int32, n), words))

	snap.Clique = append([]uint32{}, in.Clique...)

	// Links sorted by position pair; the provenance table is assigned
	// in first-appearance order over the sorted links, so two identical
	// results produce identical tables regardless of map iteration.
	snap.Links = make([]LinkRec, 0, len(in.Rels))
	for l, rel := range in.Rels {
		pa, oka := idx.Pos(l.A)
		pb, okb := idx.Pos(l.B)
		if !oka || !okb {
			continue // an AS filtered from the cone index has no serving row
		}
		var code RelCode
		switch rel {
		case topology.P2C:
			code = RelAProvB
		case topology.C2P:
			code = RelBProvA
		case topology.P2P:
			code = RelPeer
		default:
			continue
		}
		// paths.Link is normalized A < B and interning preserves ASN
		// order, so pa < pb already.
		snap.Links = append(snap.Links, LinkRec{A: pa, B: pb, Rel: code, Step: uint8(in.Steps[l])})
	}
	slices.SortFunc(snap.Links, func(x, y LinkRec) int {
		if x.A != y.A {
			return cmp.Compare(x.A, y.A)
		}
		return cmp.Compare(x.B, y.B)
	})
	stepIdx := map[string]uint8{}
	for i := range snap.Links {
		name := core.Step(snap.Links[i].Step).String()
		id, ok := stepIdx[name]
		if !ok {
			id = uint8(len(snap.StepNames))
			stepIdx[name] = id
			snap.StepNames = append(snap.StepNames, name)
		}
		snap.Links[i].Step = id
	}
	return snap
}
