package warehouse

import (
	"fmt"

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
	// ConeStart and ConeMembers are the provider/peer-observed customer
	// cones as member lists (cone.Rows layout): position p's cone is
	// ConeMembers[ConeStart[p]:ConeStart[p+1]], ascending positions.
	// ConeStart has NumASes()+1 entries, from 0 to len(ConeMembers).
	ConeStart   []int32
	ConeMembers []int32
}

// NumASes returns the interned AS count.
func (s *Snapshot) NumASes() int { return len(s.ASNs) }

// ConeSizes returns each position's cone size in ASes, the length of
// its member list. The result is the caller's.
func (s *Snapshot) ConeSizes() []int32 {
	return rowLengths(make([]int32, max(len(s.ConeStart)-1, 0)), s.ConeStart)
}

// rowLengths writes into out, and returns, the length of each of the
// len(out) rows a cone offsets column delimits.
func rowLengths(out, start []int32) []int32 {
	for p := range out {
		out[p] = start[p+1] - start[p]
	}
	return out
}

// coneRow returns position p's member list.
func (s *Snapshot) coneRow(p int) []int32 { return s.ConeMembers[s.ConeStart[p]:s.ConeStart[p+1]] }

// Rank lists positions in AS Rank order, best first:
// cone.RankPositions over ConeSizes and TransitDegree, computed on every
// call and stored nowhere, so no producer can hand a reader another
// order. The result is the caller's.
func (s *Snapshot) Rank() []int32 {
	return cone.RankPositions(s.ConeSizes(), s.TransitDegree)
}

// FromResult converts an inference result into its columnar snapshot:
// the cone product and per-AS aggregates apiserver.BuildSnapshot
// serves. Deterministic at any worker count (the cone engine
// guarantees it; everything else is sorted). The cone
// product and the prefix counts only read res, so they are two tasks of
// one pool call: the serial prefix count runs beside the cone crediting
// instead of after it. The cones are credited per distinct path while
// res.Dataset carries its grouping (core.Infer's does), and per row
// otherwise; the prefix is per row, so the prefix count always reads
// the rows. The engine builds the product as member lists, which pass
// to the snapshot uncopied; nothing on the way is sized n × n.
func FromResult(res *core.Result) *Snapshot {
	var (
		cones        *cone.Rows
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
	return Compose(res, cones, prefixCounts, res.Dataset.NumPaths())
}

// Compose assembles res's columnar snapshot around ingredients computed
// elsewhere: cones, the provider/peer-observed cone product over the
// sorted endpoints of the labeled links (the index cone.NewRelations
// builds); prefixCounts, each origin's distinct
// announced prefix count in the kept corpus (cone.PrefixCounts
// semantics); and pathCount, the kept-corpus size. The columns of cones
// pass to the snapshot uncopied; the caller must not write to them
// afterwards. Batch (FromResult) and streaming epochs flow through this
// one function, so a streaming epoch whose ingredients match a batch
// run's is bit-identical to it — column for column, and therefore ETag
// for ETag once built into an API snapshot.
func Compose(res *core.Result, cones *cone.Rows, prefixCounts map[uint32]int, pathCount int) *Snapshot {
	idx := cones.Index()
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
	snap.ConeStart, snap.ConeMembers = cones.Columns()

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

// check refuses a snapshot the store could not read back as it was
// handed over — whatever the segment decoders refuse, and whatever would
// crash the encoders: per-AS columns of the wrong length, an ASN or
// clique column not strictly ascending, a negative count, links out of
// order, out of range or with no relationship, and cone lists whose
// offsets are not n+1 non-decreasing entries from 0 to the member
// count or whose rows are not strictly ascending positions below n.
func (s *Snapshot) check() error {
	n := len(s.ASNs)
	for _, c := range []struct {
		name string
		len  int
	}{{"transit degree", len(s.TransitDegree)}, {"degree", len(s.Degree)}, {"cone prefixes", len(s.ConePrefixes)}, {"cone offsets", len(s.ConeStart) - 1}} {
		if c.len != n {
			return fmt.Errorf("warehouse: snapshot of %d ASes has %d %s entries", n, c.len, c.name)
		}
	}
	for _, c := range []struct {
		name string
		col  []uint32
	}{{"ASN", s.ASNs}, {"clique", s.Clique}} {
		for i := 1; i < len(c.col); i++ {
			if c.col[i] <= c.col[i-1] {
				return fmt.Errorf("warehouse: snapshot %s column is not strictly ascending at entry %d", c.name, i)
			}
		}
	}
	for p := range n {
		if s.TransitDegree[p] < 0 || s.Degree[p] < 0 || s.ConePrefixes[p] < 0 {
			return fmt.Errorf("warehouse: snapshot holds a negative count at position %d", p)
		}
	}
	if s.PathCount < 0 {
		return fmt.Errorf("warehouse: snapshot path count %d is negative", s.PathCount)
	}
	for i, l := range s.Links {
		prev := LinkRec{}
		if i > 0 {
			prev = s.Links[i-1]
		}
		if l.B >= int32(n) || l.A < 0 || !pairAfter(l.A, l.B, prev.A, prev.B, i == 0) {
			return fmt.Errorf("warehouse: snapshot link %d (%d,%d) is not an ordered pair of positions below %d sorting after its predecessor", i, l.A, l.B, n)
		}
		if l.Rel <= topology.None || l.Rel > topology.P2P || l.Step < core.StepNone || l.Step > core.StepPeer {
			return fmt.Errorf("warehouse: snapshot link %d (%d,%d) has relationship %d, step %d", i, l.A, l.B, l.Rel, l.Step)
		}
	}
	if s.ConeStart[0] != 0 || int(s.ConeStart[n]) != len(s.ConeMembers) {
		return fmt.Errorf("warehouse: snapshot cone offsets run from %d to %d over %d members", s.ConeStart[0], s.ConeStart[n], len(s.ConeMembers))
	}
	for p := range n {
		if s.ConeStart[p+1] < s.ConeStart[p] {
			return fmt.Errorf("warehouse: snapshot cone offsets decrease at position %d", p)
		}
		for i, m := range s.coneRow(p) {
			if m < 0 || int(m) >= n || i > 0 && m <= s.coneRow(p)[i-1] {
				return fmt.Errorf("warehouse: snapshot cone %d is not strictly ascending positions below %d at member %d", p, n, i)
			}
		}
	}
	return nil
}
