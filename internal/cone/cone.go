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
// accumulates each cone as a bitset, fanning the closure and the
// per-path chain crediting out over a worker pool sized from GOMAXPROCS
// with a deterministic shard merge, so results are identical to a
// sequential run at any setting of it.
package cone

import (
	"context"
	"net/netip"
	"slices"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
)

// v4Prefix normalizes a corpus prefix to plain IPv4, accepting the
// IPv4-mapped-in-IPv6 form (::ffff:a.b.c.d/96+n) that MRT feeds can
// legitimately carry. Everything else gives the invalid zero prefix.
func v4Prefix(p netip.Prefix) netip.Prefix {
	addr, bits := p.Addr(), p.Bits()
	if addr.Is4In6() && bits >= 96 {
		addr, bits = addr.Unmap(), bits-96
	}
	if !p.IsValid() || !addr.Is4() {
		return netip.Prefix{}
	}
	return netip.PrefixFrom(addr, bits)
}

// AddressCounts sums the address span of each origin's prefixes from a
// path corpus: a /24 contributes 256 addresses. Overlapping prefixes
// from the same origin are counted once per distinct prefix, which
// matches how the paper counts routed space. IPv4-mapped IPv6 prefixes
// are normalized to their embedded IPv4 prefix first.
func AddressCounts(ds *paths.Dataset) map[uint32]int64 {
	return originWeights(ds, func(p netip.Prefix) (netip.Prefix, int64) {
		p = v4Prefix(p)
		return p, int64(1) << (32 - p.Bits())
	})
}

// PrefixCounts counts each origin's distinct prefixes in a corpus.
func PrefixCounts(ds *paths.Dataset) map[uint32]int {
	return originWeights(ds, func(p netip.Prefix) (netip.Prefix, int) { return p, 1 })
}

// originWeights sums, per origin, the weight of each distinct prefix it
// announces. weigh returns the prefix a row counts as — an invalid one
// counts for nothing — and its weight.
func originWeights[W int | int64](ds *paths.Dataset, weigh func(netip.Prefix) (netip.Prefix, W)) map[uint32]W {
	seen := make(map[paths.OriginPrefix]struct{})
	out := make(map[uint32]W)
	for _, p := range ds.Paths {
		prefix, w := weigh(p.Prefix)
		fp := paths.FlatPrefix(prefix)
		if !fp.IsValid() {
			continue
		}
		k := fp.WithOrigin(p.Origin())
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out[k.Origin] += w
	}
	return out
}

// Relations indexes an inferred (or ground-truth) relationship set for
// cone computation: ASNs are interned into a dense index and the p2c
// digraph is stored as interned adjacency lists.
//
// Relations is immutable after construction. Every engine call computes
// a fresh product the caller owns; a caller that needs one twice holds
// the *BitSets.
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

// WithContext sets the context cone builds start their trace spans
// from and returns r for chaining (this tunes observability, never what
// is computed). When the context carries a trace span, each build
// records a "cone.build" span (engine attribute: recursive/bgp/pp) with
// closure/credit/merge children and per-shard pool.task spans.
func (r *Relations) WithContext(ctx context.Context) *Relations {
	r.ctx = ctx
	return r
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
func (r *Relations) build(engine string, compute func(context.Context) *BitSets) *BitSets {
	ctx := r.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, ph := trace.StartPhase(ctx, "cone.build")
	ph.Span.SetAttr("engine", engine)
	b := compute(ctx)
	ph.End(coneBuildDuration.With(engine), nil)
	return b
}

// RecursiveBits computes the transitive-closure customer cone of every
// AS.
func (r *Relations) RecursiveBits() *BitSets { return r.build("recursive", r.closure) }

// closure is the recursive engine: each AS's cone is the set a
// depth-first walk down its customer links reaches, one independent
// walk per AS sharded across the worker pool. A walk stops at bits it
// has already set, so a p2c cycle — possible when indexing an
// arbitrary relationship file — puts the whole cycle in every member's
// cone and terminates.
func (r *Relations) closure(ctx context.Context) *BitSets {
	cones := newBitSets(r.idx)
	closureCtx, closureSpan := trace.StartSpan(ctx, "cone.closure")
	defer closureSpan.End()
	pool.ChunksCtx(closureCtx, 0, r.idx.Len(), 64, func(_ context.Context, lo, hi int) {
		var stack []int32
		for i := int32(lo); i < int32(hi); i++ {
			b := cones.row(i)
			b.Set(i)
			stack = append(stack[:0], i)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, c := range r.custIdx[x] {
					if b.TrySet(c) {
						stack = append(stack, c)
					}
				}
			}
		}
	})
	return cones
}

// BGPObservedBits computes cones from observed paths: starting at each
// position where the next hop is one of the AS's customers, every AS on
// the maximal descending (p2c) chain is in the cone.
func (r *Relations) BGPObservedBits(ds *paths.Dataset) *BitSets {
	return r.observedBits(len(ds.Paths), func(i int) []uint32 { return ds.Paths[i].ASNs }, false)
}

// ProviderPeerObservedBits computes the PP cone: like BGPObservedBits,
// but a position only contributes when the path entered the AS from one
// of its providers or peers — third parties demonstrably routing
// through the AS to reach the cone member.
func (r *Relations) ProviderPeerObservedBits(ds *paths.Dataset) *BitSets {
	return r.observedBits(len(ds.Paths), func(i int) []uint32 { return ds.Paths[i].ASNs }, true)
}

// ProviderPeerObservedSequences is ProviderPeerObservedBits over a
// corpus's distinct hop sequences (core.Result.Sequences). Crediting is
// a union, so a sequence credited once sets exactly the bits its rows
// set, at a fraction of the walks.
func (r *Relations) ProviderPeerObservedSequences(seqs [][]uint32) *BitSets {
	return r.observedBits(len(seqs), func(i int) []uint32 { return seqs[i] }, true)
}

// observedBits shards the count paths hops(0), hops(1), ... across the
// worker pool, credits descending chains into per-shard cone
// accumulators, and merges the shards in fixed shard order so the
// result is independent of worker scheduling.
func (r *Relations) observedBits(count int, hops func(int) []uint32, needEntry bool) *BitSets {
	return r.build(engineName(needEntry), func(ctx context.Context) *BitSets {
		trace.FromContext(ctx).SetAttrInt("paths", int64(count))
		n := r.idx.Len()
		shards := make([][]asindex.Bitset, pool.NumShards(0, count))
		creditCtx, creditSpan := trace.StartSpan(ctx, "cone.credit")
		pool.RangeCtx(creditCtx, 0, count, func(_ context.Context, shard, lo, hi int) {
			local := make([]asindex.Bitset, n)
			var walk chainWalk
			for i := lo; i < hi; i++ {
				r.addChains(local, hops(i), needEntry, &walk)
			}
			shards[shard] = local
		})
		creditSpan.End()
		cones := newBitSets(r.idx)
		mergeCtx, mergeSpan := trace.StartSpan(ctx, "cone.merge")
		defer mergeSpan.End()
		pool.ChunksCtx(mergeCtx, 0, n, 64, func(_ context.Context, lo, hi int) {
			for i := int32(lo); i < int32(hi); i++ {
				b := cones.row(i)
				for _, local := range shards {
					if local[i] != nil {
						b.Or(local[i])
					}
				}
				b.Set(i) // an AS is always in its own cone
			}
		})
		return cones
	})
}

// addChains is the batch sink of the crediting walk: every credited
// chain of one path is set into the owner's cone by interned position.
func (r *Relations) addChains(cones []asindex.Bitset, asns []uint32, needEntry bool, w *chainWalk) {
	for i, end := range w.credited(r.rel, asns, needEntry) {
		if end == i {
			continue
		}
		// A p2c hop out of position i implies the link is in the
		// relationship set, so every chain position is interned.
		owner, _ := r.idx.Pos(asns[i])
		cone := cones[owner]
		if cone == nil {
			cone = asindex.NewBitset(len(r.custIdx))
			cone.Set(owner)
			cones[owner] = cone
		}
		for _, member := range asns[i+1 : end+1] {
			m, _ := r.idx.Pos(member)
			cone.Set(m)
		}
	}
}
