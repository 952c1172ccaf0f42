// Package cone computes customer cones — the set of ASes an AS can
// reach by only traversing customer links — under the three definitions
// the paper compares:
//
//   - Recursive: the transitive closure of inferred p2c links. The
//     loosest definition; it overcounts because a multihomed customer
//     need not actually route through every provider.
//   - BGP-observed: only ASes seen in actual BGP paths descending from
//     the AS along observed customer links.
//   - Provider/peer observed (PP): only ASes seen in paths that *enter*
//     the AS from one of its providers or peers and then descend — the
//     strictest evidence, and the definition CAIDA's AS Rank uses.
//
// For every AS: PP cone ⊆ BGP-observed cone ⊆ recursive cone, and the
// AS is always in its own cone.
//
// The engine interns ASNs into a dense index (internal/asindex) and
// builds every cone product as member lists (Rows): the closure lists
// what each walk reaches, and the per-path chain crediting records
// (owner, member) pairs that one counting sort turns into sorted,
// deduplicated rows. An observed cone is a union over paths, so the
// crediting walks each distinct path of a dataset's grouping once
// (paths.Dataset.Groups) and every row of a dataset without one. Both
// fan out over a worker pool sized from GOMAXPROCS, with a
// deterministic merge, so results are identical to a sequential run at
// any setting of it. Nothing is sized n × n: a
// product costs one offset per AS and one entry per member.
package cone

import (
	"context"
	"encoding/binary"
	"net/netip"
	"slices"
	"sync"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
)

// v4Prefix is a corpus prefix's canonical form (paths.CanonicalPrefix)
// when that is an IPv4 prefix, and the invalid zero prefix otherwise.
func v4Prefix(p netip.Prefix) netip.Prefix {
	if p = paths.CanonicalPrefix(p); !p.Addr().Is4() {
		return netip.Prefix{}
	}
	return p
}

// AddressCounts sums the address span of each origin's prefixes from a
// path corpus: a /24 contributes 256 addresses. Overlapping prefixes
// from the same origin are counted once per distinct prefix, which
// matches how the paper counts routed space. A prefix counts in its
// canonical form, so however it was written — IPv4-mapped, host bits
// set — it spans its addresses once; IPv6 prefixes weigh nothing.
func AddressCounts(ds *paths.Dataset) map[uint32]int64 {
	return originWeights(ds, func(p netip.Prefix) (netip.Prefix, int64) {
		p = v4Prefix(p)
		return p, int64(1) << (32 - p.Bits())
	})
}

// PrefixCounts counts each origin's distinct prefixes in a corpus, each
// in its canonical form (paths.CanonicalPrefix): one routed prefix is
// one prefix however its rows wrote it.
func PrefixCounts(ds *paths.Dataset) map[uint32]int {
	return originWeights(ds, func(p netip.Prefix) (netip.Prefix, int) { return paths.CanonicalPrefix(p), 1 })
}

// originWeights sums, per origin, the weight of each distinct prefix it
// announces. weigh returns the prefix a row counts as — an invalid one
// counts for nothing — and its weight.
//
// The distinct (origin, prefix) pairs are kept in two sets. An IPv4
// prefix — every prefix of a typical corpus — is an 8-byte key in v4,
// whose value is the first origin seen announcing it; only a second
// origin of the same prefix (MOAS) and prefixes of other families take
// the 24-byte OriginPrefix keys of rest.
//
// A row whose prefix and origin are the previous row's adds nothing and
// is skipped before either set is probed. A TABLE_DUMP_V2 RIB lists a
// prefix's routes together, so there most rows repeat the one before
// (87.5 % of a 10k-AS, 12-VP corpus in prefix order); bgpsim writes
// an origin's prefixes one VP after another, where only an origin of
// one prefix repeats (14 % of the same corpus).
func originWeights[W int | int64](ds *paths.Dataset, weigh func(netip.Prefix) (netip.Prefix, W)) map[uint32]W {
	v4 := make(map[uint64]uint32)
	rest := make(map[paths.OriginPrefix]struct{})
	out := make(map[uint32]W)
	var (
		lastPrefix netip.Prefix
		lastOrigin uint32
	)
	for i, p := range ds.Paths {
		origin := p.Origin()
		if i > 0 && p.Prefix == lastPrefix && origin == lastOrigin {
			continue
		}
		lastPrefix, lastOrigin = p.Prefix, origin
		prefix, w := weigh(p.Prefix)
		if !prefix.IsValid() {
			continue
		}
		if addr := prefix.Addr(); addr.Is4() {
			a := addr.As4()
			key := uint64(binary.BigEndian.Uint32(a[:]))<<8 | uint64(prefix.Bits())
			first, seen := v4[key]
			if !seen {
				v4[key] = origin
				out[origin] += w
				continue
			}
			if first == origin {
				continue
			}
		}
		k := paths.FlatPrefix(prefix).WithOrigin(origin)
		if _, dup := rest[k]; dup {
			continue
		}
		rest[k] = struct{}{}
		out[origin] += w
	}
	return out
}

// Relations indexes an inferred (or ground-truth) relationship set for
// cone computation: ASNs are interned into a dense index and the p2c
// digraph is stored as interned adjacency lists.
//
// Relations is immutable after construction. Every engine call computes
// a fresh product the caller owns; a caller that needs one twice holds
// the *Rows.
type Relations struct {
	rel     map[paths.Link]topology.Relationship
	idx     *asindex.Index
	custIdx [][]int32       // provider position → customer positions, ascending
	ctx     context.Context // trace-span parent for builds; nil = background
}

// endpointIndex interns the endpoints of the labeled links: the dense
// index cones are computed on and a snapshot is laid out on.
func endpointIndex(rels map[paths.Link]topology.Relationship) *asindex.Index {
	asns := make([]uint32, 0, 2*len(rels))
	for l := range rels {
		//lint:ignore nodeterminismleak asindex.New sorts and dedups its input, so collection order cannot leak
		asns = append(asns, l.A, l.B)
	}
	return asindex.New(asns)
}

// NewRelations indexes rels, whose orientation is canonical (relative to
// Link.A, as produced by core.Infer and topology.Links). The map is
// retained, not copied — callers must not mutate it afterwards.
func NewRelations(rels map[paths.Link]topology.Relationship) *Relations {
	r := &Relations{rel: rels, idx: endpointIndex(rels)}
	r.custIdx = make([][]int32, r.idx.Len())
	for l, rel := range rels {
		var provider, customer uint32
		switch rel {
		case topology.P2C:
			provider, customer = l.A, l.B
		case topology.C2P:
			provider, customer = l.B, l.A
		default:
			continue
		}
		pi, _ := r.idx.Pos(provider)
		ci, _ := r.idx.Pos(customer)
		//lint:ignore nodeterminismleak every custIdx row is sorted immediately below
		r.custIdx[pi] = append(r.custIdx[pi], ci)
	}
	for _, cs := range r.custIdx {
		slices.Sort(cs)
	}
	return r
}

// WithContext returns a copy of r whose cone builds start their trace
// spans from ctx (this tunes observability, never what is computed); r
// itself is left as it was, so it stays safe to share. When the context
// carries a trace span, each build records a "cone.build" span (engine
// attribute: recursive/bgp/pp) with closure/credit/merge children and
// per-shard pool.task spans.
func (r *Relations) WithContext(ctx context.Context) *Relations {
	c := *r
	c.ctx = ctx
	return &c
}

// Rel returns the relationship of x relative to y (P2C: x provides to y).
func (r *Relations) Rel(x, y uint32) topology.Relationship { return topology.RelOf(r.rel, x, y) }

// ASes returns every AS appearing in the relationship set, ascending.
// The returned slice is shared; callers must not modify it.
func (r *Relations) ASes() []uint32 { return r.idx.ASNs() }

// Index returns the dense ASN index the engine interned.
func (r *Relations) Index() *asindex.Index { return r.idx }

// build runs one engine as one timed "cone.build" phase carrying the
// engine attribute.
func (r *Relations) build(engine string, compute func(context.Context) *Rows) *Rows {
	ctx := r.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, ph := trace.StartPhase(ctx, "cone.build")
	ph.Span.SetAttr("engine", engine)
	rows := compute(ctx)
	ph.End(coneBuildDuration.With(engine), nil)
	return rows
}

// RecursiveBits computes the transitive-closure customer cone of every
// AS.
func (r *Relations) RecursiveBits() *Rows { return r.build("recursive", r.closure) }

// closureChunk is how many ASes one closure task walks.
const closureChunk = 64

// closureScratch is one worker's state for the closure walks: a visit
// stamp per position and the walk's stack. A walk from position i
// marks with i+1, which no other walk uses, so the stamps are never
// cleared.
type closureScratch struct {
	stamp []int32
	stack []int32
}

// closure is the recursive engine: each AS's cone is the set a
// depth-first walk down its customer links reaches, one independent
// walk per AS sharded across the worker pool. A walk lists each
// position it reaches the first time its stamp is set, so a p2c cycle
// — possible when indexing an arbitrary relationship file — puts the
// whole cycle in every member's cone and terminates. A task lists its
// chunk's rows one after another, each sorted, and the lists are
// copied into the product once every row's length is known.
func (r *Relations) closure(ctx context.Context) *Rows {
	n := r.idx.Len()
	start := make([]int32, n+1)
	parts := make([][]int32, (n+closureChunk-1)/closureChunk)
	scratch := sync.Pool{New: func() any { return &closureScratch{stamp: make([]int32, n)} }}
	closureCtx, closureSpan := trace.StartSpan(ctx, "cone.closure")
	defer closureSpan.End()
	pool.ChunksCtx(closureCtx, 0, n, closureChunk, func(_ context.Context, lo, hi int) {
		s := scratch.Get().(*closureScratch)
		var out []int32
		for i := int32(lo); i < int32(hi); i++ {
			row := len(out)
			s.stamp[i] = i + 1
			out = append(out, i)
			s.stack = append(s.stack[:0], i)
			for len(s.stack) > 0 {
				x := s.stack[len(s.stack)-1]
				s.stack = s.stack[:len(s.stack)-1]
				for _, c := range r.custIdx[x] {
					if s.stamp[c] != i+1 {
						s.stamp[c] = i + 1
						out = append(out, c)
						s.stack = append(s.stack, c)
					}
				}
			}
			slices.Sort(out[row:])
			start[i+1] = int32(len(out) - row)
		}
		parts[lo/closureChunk] = out
		scratch.Put(s)
	})
	for p := range n {
		start[p+1] += start[p]
	}
	members := make([]int32, start[n])
	pool.Chunks(0, len(parts), 16, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			copy(members[start[c*closureChunk]:], parts[c])
		}
	})
	return &Rows{idx: r.idx, start: start, members: members}
}

// BGPObservedBits computes cones from observed paths: starting at each
// position where the next hop is one of the AS's customers, every AS on
// the maximal descending (p2c) chain is in the cone.
//
// A cone is a union over paths, so a dataset that carries its grouping
// (paths.Dataset.Groups) is credited once per group — the members its
// rows would list, at a fraction of the walks — and any other row by
// row.
func (r *Relations) BGPObservedBits(ds *paths.Dataset) *Rows { return r.observed(ds, false) }

// ProviderPeerObservedBits computes the PP cone: like BGPObservedBits,
// but a position only contributes when the path entered the AS from one
// of its providers or peers — third parties demonstrably routing
// through the AS to reach the cone member.
func (r *Relations) ProviderPeerObservedBits(ds *paths.Dataset) *Rows { return r.observed(ds, true) }

// observed shards ds's paths — its groups' hops, or its rows' —
// across the worker pool; each shard records every credited (owner,
// member) position pair, a few per path, and the shards are merged in
// fixed shard order by listRows, so the product is independent of
// worker scheduling and costs what the credits and the cones hold, not
// n × n bits.
func (r *Relations) observed(ds *paths.Dataset, needEntry bool) *Rows {
	return r.build(engineName(needEntry), func(ctx context.Context) *Rows {
		count, hops := len(ds.Paths), func(i int) []uint32 { return ds.Paths[i].ASNs }
		if g := ds.Groups(); g != nil {
			count, hops = len(g.Hops), func(i int) []uint32 { return g.Hops[i] }
		}
		trace.FromContext(ctx).SetAttrInt("paths", int64(count))
		shards := make([][]credit, pool.NumShards(0, count))
		creditCtx, creditSpan := trace.StartSpan(ctx, "cone.credit")
		pool.RangeCtx(creditCtx, 0, count, func(_ context.Context, shard, lo, hi int) {
			var (
				local creditSink
				walk  chainWalk
			)
			for i := lo; i < hi; i++ {
				r.addChains(&local, hops(i), needEntry, &walk)
			}
			shards[shard] = local.credits
		})
		creditSpan.End()
		_, mergeSpan := trace.StartSpan(ctx, "cone.merge")
		defer mergeSpan.End()
		return listRows(r.idx, shards...)
	})
}

// creditSink is one shard's credits. Paths repeat chains — every
// prefix of an origin's table descends the same way — so a credit is
// first looked up in a small direct-mapped table of the pairs recorded
// last, and a hit is dropped: the list holds few more credits than the
// shard's distinct pairs. Dropping a repeat cannot change a row, which
// is a set. The table starts zeroed, the key of position 0's credit to
// itself, which every product holds anyway.
type creditSink struct {
	credits []credit
	recent  [1 << 12]uint64 // owner<<32 | member of a recorded credit
}

// add records member in owner's cone unless it was recorded lately.
func (s *creditSink) add(owner, member int32) {
	k := uint64(owner)<<32 | uint64(uint32(member))
	slot := &s.recent[(k*0x9e3779b97f4a7c15)>>52]
	if *slot == k {
		return
	}
	*slot = k
	s.credits = append(s.credits, credit{owner: owner, member: member})
}

// addChains is the batch sink of the crediting walk: every credited
// chain of one path is recorded as one credit per member, by interned
// position.
func (r *Relations) addChains(sink *creditSink, asns []uint32, needEntry bool, w *chainWalk) {
	for i, end := range w.credited(r.rel, asns, needEntry) {
		if end == i {
			continue
		}
		// A p2c hop out of position i implies the link is in the
		// relationship set, so every chain position is interned.
		owner, _ := r.idx.Pos(asns[i])
		for _, member := range asns[i+1 : end+1] {
			m, _ := r.idx.Pos(member)
			sink.add(owner, m)
		}
	}
}
